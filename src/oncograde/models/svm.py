"""Soft-margin SVM trained by SMO with second-order working-set selection
(LIBSVM's WSS2: Fan, Chen & Lin 2005, JMLR 6), wrapped one-vs-rest for the
three-class problem.

The solver keeps the full kernel matrix and the vector
``v = y - sum_j alpha_j y_j K[:, j]`` (``-y * grad`` in LIBSVM notation),
so each iteration is a few O(n) numpy operations: ``i`` is the maximal
violator in I_up, ``j`` the partner in I_low that maximizes the second-order
gain, and the pair is stepped analytically inside the box. A pair whose
curvature ``K_ii + K_jj - 2 K_ij`` is at most tau (non-positive curvature
occurs with the indefinite sigmoid kernel) has it raised to tau instead of
being skipped. Training stops when the maximal violation
``max_{I_up} v - min_{I_low} v`` drops below tol, which satisfies the
tol-relaxed KKT conditions that ``kkt_violation`` checks. No random numbers
are drawn.

The sigmoid kernel's poor score is not a solver defect. Its kernel matrix
is indefinite, so the dual is not concave and the solver converges to one
of its KKT points (Lin & Lin 2003, "A study on sigmoid kernels for SVM").
On the paper-scale synthetic data with the default gamma and coef0, every
one-vs-rest machine reaches KKT violation 0 and a dual objective at least as
high as the former random-pair solver, yet still scores only 0.34-0.39 on
its own training rows, below a constant -1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..core import as_matrix
from ..dataset import N_CLASSES
from .base import KernelSpec, kernel_matrix, proba_to_labels, softmax

# floor on the pair curvature K_ii + K_tt - 2 K_it (LIBSVM's TAU); without it
# an indefinite kernel gives non-positive curvature and an unbounded step
_TAU = 1e-12


@dataclass
class BinarySvm:
    """Dual solution for one two-class machine, labels in {-1, +1}.

    ``iterations``, ``tau_clamps`` (selected pairs whose curvature was
    raised to tau), ``gap`` (final ``max_{I_up} v - min_{I_low} v``) and
    ``hit_cap`` describe the solver run; they are never serialized.
    """

    kernel: KernelSpec
    alphas: np.ndarray
    bias: float
    X: np.ndarray
    y: np.ndarray
    C: float
    iterations: int = 0
    tau_clamps: int = 0
    gap: float = 0.0
    hit_cap: bool = False

    @property
    def support_mask(self) -> np.ndarray:
        return self.alphas > 0

    def decision(self, Xq) -> np.ndarray:
        Xq = as_matrix(Xq)
        m = self.support_mask
        K = kernel_matrix(self.kernel, Xq, self.X[m])
        return K @ (self.alphas[m] * self.y[m]) + self.bias


def dual_objective(svm: BinarySvm) -> float:
    """Value of the dual: sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij."""
    ay = svm.alphas * svm.y
    K = kernel_matrix(svm.kernel, svm.X, svm.X)
    return float(svm.alphas.sum() - 0.5 * ay @ K @ ay)


def kkt_violation(svm: BinarySvm, tol: float = 1e-3) -> float:
    """Largest violation of the tol-relaxed KKT conditions over training points."""
    E = svm.decision(svm.X) - svm.y
    r = svm.y * E
    viol = np.zeros_like(r)
    lower = svm.alphas < svm.C  # margin must not be violated from below
    viol[lower] = np.maximum(viol[lower], -r[lower] - tol)
    upper = svm.alphas > 0
    viol[upper] = np.maximum(viol[upper], r[upper] - tol)
    return float(viol.max(initial=0.0))


def train_svm_binary(X, y, kernel: KernelSpec, C: float = 1.0, tol: float = 1e-3) -> BinarySvm:
    """SMO with WSS2 working-set selection on labels in {-1, +1}."""
    X = as_matrix(X)
    y = np.asarray(y, dtype=float)
    if not ((y == 1).any() and (y == -1).any()):
        raise ValueError("both classes must be present for binary SVM training")

    n = X.shape[0]
    K = kernel_matrix(kernel, X, X)
    diag = K.diagonal().copy()
    alphas = np.zeros(n)
    v = y.copy()
    pos = y > 0
    # I_up: alpha can move so that alpha*y grows; I_low: so that it shrinks
    up = pos.copy()
    low = ~pos
    cap = max(10_000_000, 100 * n)
    iterations = tau_clamps = 0
    while True:
        v_up = np.where(up, v, -np.inf)
        i = int(np.argmax(v_up))
        v_low = np.where(low, v, np.inf)
        m_up, m_low = v_up[i], v_low.min()
        if m_up - m_low < tol or iterations >= cap:
            break
        # j maximizes the second-order gain b^2 / a over t in I_low with v_t < v_i
        b = np.maximum(v[i] - v_low, 0.0)
        a = diag - 2.0 * K[i]
        a += diag[i]
        np.maximum(a, _TAU, out=a)
        j = int(np.argmax(b * b / a))
        tau_clamps += int(a[j] == _TAU)
        # alpha_i y_i grows by t and alpha_j y_j shrinks by t, keeping sum(alpha y)
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
    return BinarySvm(
        kernel=kernel,
        alphas=alphas,
        bias=bias,
        X=X,
        y=y,
        C=C,
        iterations=iterations,
        tau_clamps=tau_clamps,
        gap=float(m_up - m_low),
        hit_cap=bool(m_up - m_low >= tol),
    )


@dataclass
class SvmOvrModel:
    family = "svm_ovr"
    kernel: KernelSpec
    C: float
    machines: list[dict]  # per class: support_x, support_coef (alpha*y) arrays, bias
    n_features: int

    def decision_matrix(self, X) -> np.ndarray:
        X = as_matrix(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"dimension mismatch: model expects {self.n_features} features, got {X.shape[1]}"
            )
        return np.column_stack([
            kernel_matrix(self.kernel, X, m["support_x"]) @ m["support_coef"] + m["bias"]
            for m in self.machines
        ])

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.decision_matrix(X))

    def predict(self, X) -> np.ndarray:
        return proba_to_labels(self.decision_matrix(X))

    def to_params(self) -> dict:
        return {
            "kernel": dataclasses.asdict(self.kernel),
            "C": self.C,
            "n_features": self.n_features,
            "machines": [
                {
                    "support_x": m["support_x"].tolist(),
                    "support_coef": m["support_coef"].tolist(),
                    "bias": float(m["bias"]),
                }
                for m in self.machines
            ],
        }

    @classmethod
    def from_params(cls, params: dict) -> "SvmOvrModel":
        n_features = params["n_features"]
        machines = [
            # an absent class's machine has no support rows, written as `[]`
            dict(m, support_x=np.asarray(m["support_x"], dtype=float).reshape(-1, n_features),
                 support_coef=np.asarray(m["support_coef"], dtype=float))
            for m in params["machines"]
        ]
        return cls(KernelSpec(**params["kernel"]), params["C"], machines, n_features)


def train_svm_ovr(X, y, kernel: KernelSpec, C: float = 1.0) -> SvmOvrModel:
    """One binary machine per class (class c = +1, rest = -1)."""
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.int64)
    if np.unique(y).size < 2:
        raise ValueError("at least 2 classes required for one-vs-rest training")
    machines = []
    for cls in range(N_CLASSES):
        if not (y == cls).any():
            # absent class: constant decision -1, never wins against a real machine
            machines.append({"support_x": np.empty((0, X.shape[1])), "support_coef": np.empty(0), "bias": -1.0})
            continue
        ypm = np.where(y == cls, 1.0, -1.0)
        svm = train_svm_binary(X, ypm, kernel, C)
        m = svm.support_mask
        machines.append(
            {
                "support_x": svm.X[m],
                "support_coef": svm.alphas[m] * svm.y[m],
                "bias": svm.bias,
            }
        )
    return SvmOvrModel(kernel=kernel, C=C, machines=machines, n_features=X.shape[1])
