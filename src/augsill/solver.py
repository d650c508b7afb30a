"""Closed-form fitting of the lifted transition matrix K, plus evaluation.

Fitting is plain (optionally ridge-regularized) least squares: stack lifted
inputs row-wise and solve for K columnwise. A ridge that keeps the normal
equations well conditioned (every default fit) is solved by a Cholesky factor
of the Gram matrix; ridge 0, or a ridge too small to bound the conditioning,
goes through numpy's SVD-backed lstsq, which is rank-revealing and returns the
minimum-norm solution on rank-deficient data. Continuous-mode targets are
lifted-derivative rows obtained by the chain rule through the dictionary
Jacobian.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, expm

from .dictionaries import (
    Dictionary,
    dictionary_from_ini,
    dictionary_to_ini,
    lift,
    lift_jacobian_many,
    lift_many,
)
from .errors import (
    DataError,
    DomainError,
    EvaluationWindowError,
    IllConditionedWarning,
    NumericalError,
    ini_field,
    positive_float,
    read_csv,
    read_ini,
)
from .systems import Mode

DEFAULT_RIDGE_FACTOR = 1e-8  # default ridge = this times sigma_max^2
# ridge_lstsq solves by Cholesky when (trace(a^T a) + ridge) / ridge, an upper
# bound on cond(a^T a + ridge I), is at most this. The default ridge passes
# for lifts of up to 100 columns.
GRAM_COND_LIMIT = 1e10


@dataclass
class KoopmanModel:
    """A fitted lifted-space transition (or generator) matrix over a dictionary."""

    dictionary: Dictionary
    K: np.ndarray
    mode: Mode
    dt: float

    def __post_init__(self):
        self.mode = Mode(self.mode)
        # fixed memory layout so saved and reloaded models roll out bitwise equal
        self.K = np.ascontiguousarray(np.asarray(self.K, dtype=float))
        d = self.dictionary.lifted_dim
        if self.K.shape != (d, d):
            raise DomainError(f"K must be {d}x{d}, got {self.K.shape}")
        if not np.all(np.isfinite(self.K)):
            raise NumericalError("K contains non-finite entries")

    @property
    def projection(self):
        """Index range of the state block inside a lifted vector."""
        return slice(1, 1 + self.dictionary.m)

    def step_matrix(self):
        """Matrix advancing a lifted state by one dt: K itself for discrete
        models, the matrix exponential e^{K dt} for generator (continuous)
        models."""
        if self.mode == Mode.DISCRETE_PAIRS:
            return self.K
        return expm(self.K * self.dt)


def _lifted_pair(dataset, d):
    dataset.check_finite()
    psi_in = lift_many(d, dataset.inputs)
    if dataset.mode == Mode.DISCRETE_PAIRS:
        psi_out = lift_many(d, dataset.targets)
    else:
        jac = lift_jacobian_many(d, dataset.inputs)
        psi_out = np.einsum("rdm,rm->rd", jac, dataset.targets)
    return psi_in, psi_out


def ridge_lstsq(a, b, ridge):
    """Minimizer w of ||a w - b||^2 + ridge ||w||^2 and the rank of the
    stacked system [a; sqrt(ridge) I], which is full at ridge > 0.

    A ridge > 0 that bounds cond(a^T a + ridge I) by GRAM_COND_LIMIT (see
    there) is solved from the normal equations (a^T a + ridge I) w = a^T b by
    a Cholesky factor; there the normal equations lose no more accuracy than
    the conditioning allows (Bjorck 1996). Otherwise, or if the factorization
    fails, SVD-backed lstsq solves the stacked system; at ridge 0 that is
    lstsq over a alone, giving the minimum-norm solution and the numerical
    rank. A ridge that is not finite and >= 0 raises DomainError, and an
    SVD that fails to converge NumericalError."""
    if not 0 <= ridge < np.inf:
        raise DomainError(f"ridge must be finite and >= 0, got {ridge}")
    if ridge > 0:
        n = a.shape[1]
        gram = a.T @ a
        # Python floats: a ridge too small for the bound overflows to inf
        # without a warning and fails it.
        if float(np.trace(gram)) + float(ridge) <= GRAM_COND_LIMIT * float(ridge):
            gram[np.diag_indices(n)] += ridge
            try:
                factor = cho_factor(gram, overwrite_a=True, check_finite=False)
                return cho_solve(factor, a.T @ b, overwrite_b=True, check_finite=False), n
            except LinAlgError:
                pass
        a = np.vstack([a, np.sqrt(ridge) * np.eye(n)])
        b = np.vstack([b, np.zeros((n, b.shape[1]))])
    try:
        w, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    except LinAlgError as exc:  # e.g. an overflowing design: SVD did not converge
        raise NumericalError(f"least-squares solve failed: {exc}") from None
    return w, rank


def adaptive_ridge(psi_in):
    """The default ridge of solve_k: 1e-8 * sigma_max(psi_in)^2."""
    return DEFAULT_RIDGE_FACTOR * np.linalg.norm(psi_in, 2) ** 2


def solve_k(psi_in, psi_out, ridge=None):
    """Least-squares K with psi_out ~ psi_in @ K.T, from lifted rows.

    ridge=None uses the adaptive default 1e-8 * sigma_max(psi_in)^2; pass 0.0
    for an unregularized solve (min-norm on rank-deficient data, with a
    warning). Returns K C-contiguous, the layout KoopmanModel stores.
    """
    r, n = psi_in.shape
    if r < n:
        warnings.warn(
            f"only {r} rows for a {n}-dimensional lift; fit is underdetermined",
            IllConditionedWarning, stacklevel=3,
        )
    if ridge is None:
        ridge = adaptive_ridge(psi_in)
    kt, rank = ridge_lstsq(psi_in, psi_out, ridge)
    if ridge == 0 and rank < n:
        warnings.warn(
            f"lifted data matrix is rank deficient ({rank} < {n}); "
            "returning the minimum-norm solution",
            IllConditionedWarning, stacklevel=3,
        )
    return np.ascontiguousarray(kt.T)


def fit_k(dataset, d, ridge=None):
    """Least-squares fit of K over a fixed dictionary (see solve_k for ridge)."""
    k = solve_k(*_lifted_pair(dataset, d), ridge)
    return KoopmanModel(dictionary=d, K=k, mode=dataset.mode, dt=dataset.dt)


def frobenius_residual(model, dataset):
    """Sum of squared lifted residuals over the whole dataset."""
    psi_in, psi_out = _lifted_pair(dataset, model.dictionary)
    res = psi_out - psi_in @ model.K.T
    return float(np.sum(res * res))


def dmd_baseline(dataset):
    """Plain linear least squares x_{t+1} ~ A x_t, packaged over the [1, y]
    dictionary with zero constant coupling."""
    if dataset.mode != Mode.DISCRETE_PAIRS:
        raise DomainError("dmd baseline needs a discrete-pairs dataset")
    dataset.check_finite()
    at, _ = ridge_lstsq(dataset.inputs, dataset.targets, 0.0)
    m = dataset.m
    k = np.zeros((1 + m, 1 + m))
    k[0, 0] = 1.0
    k[1:, 1:] = at.T
    return KoopmanModel(dictionary=Dictionary.linear(m), K=k,
                        mode=Mode.DISCRETE_PAIRS, dt=dataset.dt)


def predict_n_steps(model, y0, n):
    """Roll the lifted state forward n steps and project each to measurements.

    Pure linear rollout: z_{k+1} = K_step z_k from z_0 = psi(y0); the lift is
    never re-applied between steps. Returns an (n+1, m) array whose row 0 is y0.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    z = lift(model.dictionary, np.asarray(y0, dtype=float))
    k_step = model.step_matrix()
    out = np.empty((n + 1, model.dictionary.m))
    out[0] = z[model.projection]
    for i in range(n):
        z = k_step @ z
        out[i + 1] = z[model.projection]
    return out


def n_step_error(model, eval_trajectories, n):
    """Mean relative n-step prediction error over all admissible windows.

    For every trajectory and every start index t with t+n in range, predicts
    x_{t+n} from x_t by pure lifted rollout and scores
    ||x_hat - x||_2 / (||x||_2 + 1e-8); returns the mean in fixed
    (trajectory, start-index) order.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    starts, targets = [], []
    for tr in eval_trajectories:
        if len(tr) <= n:
            continue
        starts.append(tr.states[:-n])
        targets.append(tr.states[n:])
    if not starts:
        raise EvaluationWindowError(f"no trajectory offers a window of {n} steps")
    x0 = np.vstack(starts)
    xt = np.vstack(targets)
    z = lift_many(model.dictionary, x0)
    k_step = model.step_matrix()
    for _ in range(n):
        z = z @ k_step.T
    xh = z[:, model.projection]
    num = np.linalg.norm(xh - xt, axis=1)
    den = np.linalg.norm(xt, axis=1) + 1e-8
    return float(np.mean(num / den))


# -- model files -------------------------------------------------------------------


def _k_csv_path(model_path):
    root, _ = os.path.splitext(model_path)
    return root + ".k.csv"


def save_model(model, path):
    """Write the model as INI text beside a row-major CSV of K."""
    k_path = _k_csv_path(path)
    cp = dictionary_to_ini(model.dictionary)
    cp["model"] = {
        "mode": model.mode.value,
        "dt": repr(float(model.dt)),
        "k_file": os.path.basename(k_path),
    }
    with open(path, "w") as fh:
        cp.write(fh)
    with open(k_path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in model.K:
            w.writerow([repr(float(v)) for v in row])


def load_model(path):
    cp = read_ini(path)
    d = dictionary_from_ini(cp, path)
    k_file = ini_field(cp, "model", "k_file", str, path)
    mode = ini_field(cp, "model", "mode", Mode, path)
    dt = ini_field(cp, "model", "dt", positive_float, path)
    k_path = os.path.join(os.path.dirname(os.path.abspath(path)), k_file)
    rows = read_csv(k_path)
    try:
        k = np.array([[float(v) for v in row] for row in rows])
    except ValueError:
        k = None
    if k is None or not np.all(np.isfinite(k)):
        raise DataError(f"{k_path}: K entries must be finite numbers in equal-length rows")
    return KoopmanModel(dictionary=d, K=k, mode=mode, dt=dt)
