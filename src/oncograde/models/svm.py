"""Soft-margin SVM trained by SMO with second-order working-set selection
(LIBSVM's WSS2: Fan, Chen & Lin 2005, JMLR 6), wrapped one-vs-one for the
three-class problem.

``train_svm_ovr`` trains one binary machine per class pair on the rows of
its two classes, as LIBSVM does (Chang & Lin 2011, section 7). Each machine
builds its own pair's kernel matrix and checks that it is finite, so a fit
holds one pair's matrix at a time, about (2n/3)^2 entries. Prediction is a
vote: pair (a, b) votes for a where its decision is positive and for b
otherwise, and a class's votes plus its summed pair confidence, scaled into
(-1/3, 1/3) as scikit-learn's ``decision_function_shape="ovr"`` does, are
the scores that ``predict`` takes the argmax of and ``predict_proba``
softmaxes. The names ``train_svm_ovr`` and ``SvmOvrModel`` predate the
one-vs-one scheme; the benchmark's layer tracer wraps them by name, so they
stay until it changes. The model's family, ``svm_ovo``, is what a model
file names, so a file written by the one-vs-rest code is refused at load.

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

At its default gamma="scale" the sigmoid model gets every test row wrong,
because that gamma saturates tanh, not because of a solver defect or of
the kernel's indefiniteness (Lin & Lin 2003; Haasdonk 2005, TPAMI): with
tanh(gamma x.y) near 1 for most pairs, most selected pairs are tau-clamped
and step to the box, every alpha ends at 0 or C, the bias is the midpoint
fallback, and the machines are inverted, so the true class never wins the
vote. A smaller gamma does not saturate and scores well. README's "SVM
models" section has the measurements.
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


def train_svm_binary(X, y, kernel: KernelSpec, C: float = 1.0, tol: float = 1e-3) -> BinarySvm:
    """SMO with WSS2 working-set selection on float labels in {-1, +1}, both present.

    The kernel matrix of ``X`` against itself is checked to be finite: one
    that overflows (a large gamma or degree) would otherwise leave SMO
    stepping on inf and NaN until its iteration cap.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        K = kernel_matrix(kernel, X, X)
    # max and min propagate NaN and reach any inf without an n x n temporary
    if not (np.isfinite(K.max()) and np.isfinite(K.min())):
        raise ValueError(
            f"{kernel.kind} kernel is not finite on the training rows "
            f"(gamma={kernel.gamma}, degree={kernel.degree}); lower gamma or degree"
        )

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


# the class pairs (a, b), a < b, in LIBSVM's order; pair p's machine labels a +1 and b -1
_PAIRS = ((0, 1), (0, 2), (1, 2))
# (pair, class) one-hots of each pair's class a and of its class b
_CLASS_A, _CLASS_B = np.eye(N_CLASSES)[list(zip(*_PAIRS))]


@dataclass
class SvmOvrModel(TrainedModel):
    family = "svm_ovo"
    kernel: KernelSpec
    support_x: np.ndarray  # (n_sv, d): each row that is a support vector of any machine, once
    coef: np.ndarray  # (n_sv, 3): alpha*y per pair machine, 0 where a row is not one of its SVs
    bias: np.ndarray  # (3,)

    def decision_matrix(self, X) -> np.ndarray:
        """Each pair machine's decision on each row; one that overflows raises ``ValueError``."""
        with np.errstate(over="ignore", invalid="ignore"):
            D = kernel_matrix(self.kernel, X, self.support_x) @ self.coef + self.bias
        if not np.isfinite(D).all():
            raise ValueError(f"{self.kernel.kind} kernel decisions are not finite on the rows to score")
        return D

    def scores(self, X) -> np.ndarray:
        """Each class's votes plus its summed pair confidence scaled into (-1/3, 1/3).

        Pair (a, b) votes for a where its decision is > 0 and for b
        otherwise, as LIBSVM does; the confidence only orders classes
        whose votes tie (scikit-learn's ``decision_function_shape="ovr"``).
        """
        D = self.decision_matrix(X)
        a_wins = D > 0
        votes = a_wins @ _CLASS_A + ~a_wins @ _CLASS_B
        conf = D @ (_CLASS_A - _CLASS_B)
        return votes + conf / (3 * (np.abs(conf) + 1))

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.scores(X))

    def predict(self, X) -> np.ndarray:
        # the scores' own argmax: softmax can round two close scores to one value
        return proba_to_labels(self.scores(X))

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
    """One binary machine per class pair (a = +1, b = -1) on that pair's rows,
    stored in LIBSVM's multi-class layout (Chang & Lin 2011). A pair with an
    absent class trains no machine: its ``coef`` column is zero and its bias
    is +1 or -1, a constant vote for the class that is present."""
    present = np.bincount(y, minlength=N_CLASSES) > 0
    if present.sum() < 2:
        raise ValueError("at least 2 classes required for one-vs-one training")
    coef = np.zeros((X.shape[0], N_CLASSES))
    bias = np.empty(N_CLASSES)
    for p, (a, b) in enumerate(_PAIRS):
        if not (present[a] and present[b]):
            bias[p] = 1.0 if present[a] else -1.0
            continue
        rows = np.flatnonzero((y == a) | (y == b))
        svm = train_svm_binary(X[rows], np.where(y[rows] == a, 1.0, -1.0), kernel, C)
        if svm.hit_cap:  # kept as it stands, with the warning LIBSVM prints in the same case
            where = f"the {kernel.kind} svm machine for {LABEL_VALUES[a]} against {LABEL_VALUES[b]}"
            print(f"warning: {where} stopped at its iteration cap with gap {svm.gap:.6g}", file=sys.stderr)
        coef[rows, p] = svm.alphas * svm.y
        bias[p] = svm.bias
    support = coef.any(axis=1)
    return SvmOvrModel(kernel, X[support], coef[support], bias)
