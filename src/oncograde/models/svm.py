"""Soft-margin SVM trained by SMO with second-order working-set selection
(LIBSVM's WSS2: Fan, Chen & Lin 2005, JMLR 6), wrapped one-vs-rest for the
three-class problem.

``train_svm_ovr`` builds the n x n kernel matrix of the training rows once,
checks that it is finite, and hands it to each of the three binary machines.
The solver keeps the vector ``v = y - sum_j alpha_j y_j K[:, j]``
(``-y * grad`` in LIBSVM notation) as the first row of a (3, n) state array
whose other rows are ``v`` on I_up (``-inf`` elsewhere) and ``v`` on I_low
(``+inf`` elsewhere). Each iteration is a few O(n) numpy operations written
into preallocated buffers, so it allocates no array: ``i`` is the maximal
violator in I_up, ``j`` the partner in I_low that maximizes the second-order
gain, and the pair is stepped analytically inside the box. The step
``t * (K[i] - K[j])`` is subtracted from all three rows at once, which leaves
the infinite entries as they are, and only entries ``i`` and ``j`` are then
reset to their sets. The alphas and labels are Python floats, so the scalar
bookkeeping indexes no numpy array. A pair whose curvature
``K_ii + K_jj - 2 K_ij`` is at most tau (non-positive curvature occurs with
the indefinite sigmoid kernel) has it raised to tau instead of being
skipped. Training stops when the maximal violation
``max_{I_up} v - min_{I_low} v`` drops below tol, which satisfies the
tol-relaxed KKT conditions that ``kkt_violation`` checks. No random numbers
are drawn.

The sigmoid kernel's poor score is not a solver defect (Lin & Lin 2003;
Haasdonk 2005, TPAMI). The kernel is indefinite: on MinMax-scaled rows
tanh(gamma x.y) lies in [0.35, 1] and ranks rows by dot product, not by
distance, and 431 of the 876 eigenvalues of the seed-42 paper training
matrix are negative. So most selected pairs are tau-clamped and step to
the box, and the machines end at its corners: every support vector sits at
C, none is free, and the bias is the midpoint fallback. The machines are
inverted: labelling each test row by its lowest decision scores 0.66-0.67
over seeds 42, 7, 101 and 3, against 0.07-0.14 by the highest.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ..core import json_array, json_value
from ..dataset import LABEL_VALUES, N_CLASSES
from .base import KernelSpec, TrainedModel, kernel_matrix, proba_to_labels, softmax

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
        m = self.support_mask
        K = kernel_matrix(self.kernel, Xq, self.X[m])
        return K @ (self.alphas[m] * self.y[m]) + self.bias


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


def _training_kernel(kernel: KernelSpec, X: np.ndarray) -> np.ndarray:
    """The n x n kernel matrix of the training rows, checked to be finite.

    A kernel that overflows (a large gamma or degree) would otherwise leave
    SMO stepping on inf and NaN until its iteration cap.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        K = kernel_matrix(kernel, X, X)
    # max and min propagate NaN and reach any inf without an n x n temporary
    if not (np.isfinite(K.max()) and np.isfinite(K.min())):
        raise ValueError(
            f"{kernel.kind} kernel is not finite on the training rows "
            f"(gamma={kernel.gamma}, degree={kernel.degree}); lower gamma or degree"
        )
    return K


def train_svm_binary(
    X, y, kernel: KernelSpec, C: float = 1.0, tol: float = 1e-3, K: np.ndarray | None = None
) -> BinarySvm:
    """SMO with WSS2 working-set selection on float labels in {-1, +1}, both present.

    ``K`` is the kernel matrix of ``X`` against itself; it is computed
    here when not given.
    """
    if K is None:
        K = _training_kernel(kernel, X)

    n = X.shape[0]
    C = float(C)  # so alphas set to a bound stay floats
    diag = K.diagonal().copy()
    ys = y.tolist()
    pos = (y > 0).tolist()
    alphas = [0.0] * n
    # rows: v, v on I_up (-inf elsewhere), v on I_low (+inf elsewhere).
    # I_up: alpha can move so that alpha*y grows; I_low: so that it shrinks.
    state = np.stack([y, np.where(y > 0, y, -np.inf), np.where(y > 0, np.inf, y)])
    v, v_up, v_low = state
    b, a, gain, step = np.empty((4, n))  # per-iteration scratch
    cap = max(10_000_000, 100 * n)
    iterations = tau_clamps = 0
    while True:
        i = int(v_up.argmax())
        # argmin finds the same value as min, in a fraction of the time
        m_up, m_low = float(v_up[i]), float(v_low[v_low.argmin()])
        if m_up - m_low < tol or iterations >= cap:
            break
        # j maximizes the second-order gain b^2 / a over t in I_low with
        # v_t < v_i (= m_up); a is the curvature (diag - 2 K[i]) + K_ii
        np.subtract(m_up, v_low, out=b)
        np.maximum(b, 0.0, out=b)
        Ki = K[i]
        np.multiply(Ki, 2.0, out=a)
        np.subtract(diag, a, out=a)
        a += diag[i]
        np.maximum(a, _TAU, out=a)
        np.multiply(b, b, out=gain)
        gain /= a
        j = int(gain.argmax())
        a_j = float(a[j])
        tau_clamps += int(a_j == _TAU)
        # alpha_i y_i grows by t and alpha_j y_j shrinks by t, keeping sum(alpha y)
        ub_i = C - alphas[i] if pos[i] else alphas[i]
        ub_j = alphas[j] if pos[j] else C - alphas[j]
        t = min(float(b[j]) / a_j, ub_i, ub_j)
        alphas[i] += ys[i] * t
        alphas[j] -= ys[j] * t
        if t == ub_i:
            alphas[i] = C if pos[i] else 0.0
        if t == ub_j:
            alphas[j] = 0.0 if pos[j] else C
        np.subtract(Ki, K[j], out=step)
        step *= t
        state -= step  # -inf and +inf entries stay put
        for k in (i, j):
            ak = alphas[k]
            in_up, in_low = (ak < C, ak > 0) if pos[k] else (ak > 0, ak < C)
            v_up[k] = v[k] if in_up else -np.inf
            v_low[k] = v[k] if in_low else np.inf
        iterations += 1

    alphas = np.array(alphas)
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
class SvmOvrModel(TrainedModel):
    family = "svm_ovr"
    kernel: KernelSpec
    support_x: np.ndarray  # (n_sv, d): each row that is a support vector of any machine, once
    coef: np.ndarray  # (n_sv, 3): alpha*y per machine, 0 where a row is not one of its SVs
    bias: np.ndarray  # (3,)

    def decision_matrix(self, X) -> np.ndarray:
        """Each machine's decision on each row; one that overflows raises ``ValueError``."""
        with np.errstate(over="ignore", invalid="ignore"):
            D = kernel_matrix(self.kernel, X, self.support_x) @ self.coef + self.bias
        if not np.isfinite(D).all():
            raise ValueError(f"{self.kernel.kind} kernel decisions are not finite on the rows to score")
        return D

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.decision_matrix(X))

    def predict(self, X) -> np.ndarray:
        # the decisions' own argmax: softmax can round two close decisions to one value
        return proba_to_labels(self.decision_matrix(X))

    @classmethod
    def from_params(cls, params: dict) -> "SvmOvrModel":
        """Read the ``params`` that ``model_to_doc`` writes, their numbers by the run config's rules."""
        support_x, coef, bias = (
            json_array(float, params[k], f"svm support_x, coef and bias must be finite numbers, and {k}[{{0}}] is not")
            for k in ("support_x", "coef", "bias")
        )
        n_sv = len(support_x) if support_x.ndim == 2 else 0
        if not (n_sv and coef.shape == (n_sv, N_CLASSES) and bias.shape == (N_CLASSES,)):
            raise ValueError(
                "svm support_x, coef and bias must be shaped (n_sv >= 1, d), (n_sv, 3) and (3,), "
                f"got {support_x.shape}, {coef.shape} and {bias.shape}"
            )
        return cls(json_value(KernelSpec, params["kernel"], "svm.kernel"), support_x, coef, bias)


def train_svm_ovr(X, y, kernel: KernelSpec, C: float = 1.0) -> SvmOvrModel:
    """One binary machine per class (class c = +1, rest = -1), stored in
    LIBSVM's multi-class layout (Chang & Lin 2011). An absent class gets a
    zero ``coef`` column and bias -1, a constant that never wins."""
    if np.unique(y).size < 2:
        raise ValueError("at least 2 classes required for one-vs-rest training")
    K = _training_kernel(kernel, X)  # shared by the three machines
    coef = np.zeros((X.shape[0], N_CLASSES))
    bias = np.full(N_CLASSES, -1.0)
    for cls in range(N_CLASSES):
        if not (y == cls).any():
            continue
        svm = train_svm_binary(X, np.where(y == cls, 1.0, -1.0), kernel, C, K=K)
        if svm.hit_cap:  # kept as it stands, with the warning LIBSVM prints in the same case
            where = f"the {kernel.kind} svm machine for class {LABEL_VALUES[cls]}"
            print(f"warning: {where} stopped at its iteration cap with gap {svm.gap:.6g}", file=sys.stderr)
        coef[:, cls] = svm.alphas * svm.y
        bias[cls] = svm.bias
    support = coef.any(axis=1)
    return SvmOvrModel(kernel, X[support], coef[support], bias)
