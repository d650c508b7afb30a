"""Dictionary learning: minibatch SGD over member parameters, and greedy
matching pursuit over a fixed candidate pool.

SGD alternates gradient steps on the centers/steepnesses with periodic
closed-form refits of K (the inner problem is linear least squares, so
descending on K is optional). Steepness is parameterized as exp(u) with u
unconstrained; gradients chain through the exponential. Both algorithms are
deterministic under a fixed seed. Training operates on discrete snapshot
pairs; continuous-mode fitting stays in the closed-form solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import (
    ConjunctiveFunction,
    Dictionary,
    Family,
    Kind,
    POLYNOMIAL_FAMILIES,
    ScalarBasisParams,
    assemble_lift,
    conjunctive_values,
    lift_many,
    member_sensitivities_packed,
    member_values_packed,
    polynomial_multi_indices,
)
from .errors import DomainError, ParameterDomainError, PoolError, TrainingDivergedError
from .solver import KoopmanModel, fit_k, ridge_lstsq
from .systems import Mode


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 32
    learning_rate: float = 1e-2
    lr_decay: float = 0.999
    seed: int = 0
    refit_k_every: int = 10
    descend_k: bool = False
    ridge: float = None  # forwarded to the closed-form refits

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.refit_k_every < 1:
            raise ParameterDomainError("epochs, batch_size, refit_k_every must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ParameterDomainError(f"bad learning rate {self.learning_rate}")
        if not (0 < self.lr_decay <= 1):
            raise ParameterDomainError(f"lr_decay must be in (0, 1], got {self.lr_decay}")


@dataclass
class GradientBundle:
    """Gradients of the batch loss; shape parameters are None for polynomial
    dictionaries (they have none)."""

    d_k: np.ndarray
    d_center: np.ndarray = None  # (N, m)
    d_steepness: np.ndarray = None  # (N, m), w.r.t. raw steepness


def _loss_and_grads_packed(family, c, a, rbf, k, x_in, x_out, want_shape_grads):
    """Batch loss plus gradients, all from packed parameter arrays."""
    m = x_in.shape[1]
    b = x_in.shape[0]
    if want_shape_grads:
        v_in, s_in = member_sensitivities_packed(family, c, a, rbf, x_in)
        v_out, s_out = member_sensitivities_packed(family, c, a, rbf, x_out)
    else:
        v_in = member_values_packed(family, c, a, rbf, x_in)
        v_out = member_values_packed(family, c, a, rbf, x_out)
    psi_in = assemble_lift(x_in, v_in)
    psi_out = assemble_lift(x_out, v_out)
    res = psi_out - psi_in @ k.T
    loss = float(np.sum(res * res)) / b
    d_k = (-2.0 / b) * (res.T @ psi_in)
    if not want_shape_grads:
        return loss, d_k, None, None
    # Member j feeds lifted column q = 1+m+j of both liftings; the chain rule
    # pulls res through the output lift directly and through K on the input.
    res_nl = res[:, 1 + m :]
    back_nl = (res @ k)[:, 1 + m :]
    # d/dmu = -a*S, d/dalpha = (y - c)*S  (see member_sensitivities_packed)
    g_center = (2.0 / b) * (
        np.einsum("tj,tji->ji", res_nl, -a[None] * s_out)
        - np.einsum("tj,tji->ji", back_nl, -a[None] * s_in)
    )
    g_steep = (2.0 / b) * (
        np.einsum("tj,tji->ji", res_nl, (x_out[:, None, :] - c[None]) * s_out)
        - np.einsum("tj,tji->ji", back_nl, (x_in[:, None, :] - c[None]) * s_in)
    )
    return loss, d_k, g_center, g_steep


def objective_and_gradient(model, batch):
    """Mean squared lifted one-step residual over the batch, with gradients
    w.r.t. K and (for trainable families) every center and steepness."""
    if batch.mode != Mode.DISCRETE_PAIRS:
        raise DomainError("training objective is defined on discrete pairs")
    d = model.dictionary
    if d.family in POLYNOMIAL_FAMILIES:
        psi_in = lift_many(d, batch.inputs)
        psi_out = lift_many(d, batch.targets)
        res = psi_out - psi_in @ model.K.T
        b = batch.n_rows
        loss = float(np.sum(res * res)) / b
        return loss, GradientBundle(d_k=(-2.0 / b) * (res.T @ psi_in))
    c, a, rbf = d._packed()
    loss, d_k, g_c, g_a = _loss_and_grads_packed(
        d.family, c, a, rbf, model.K, batch.inputs, batch.targets, True
    )
    return loss, GradientBundle(d_k=d_k, d_center=g_c, d_steepness=g_a)


def _init_shape_params(dataset, family, n_members, rng):
    """Seeded starting placement: centers uniform over the data box,
    log-steepness uniform in [log 0.5, log 3]."""
    m = dataset.m
    lo, hi = dataset.inputs.min(axis=0), dataset.inputs.max(axis=0)
    centers = rng.uniform(lo, hi, size=(n_members, m))
    log_steep = rng.uniform(math.log(0.5), math.log(3.0), size=(n_members, m))
    n_logistic = (n_members + 1) // 2 if family == Family.AUGSILL else (
        n_members if family == Family.SILL else 0
    )
    rbf_mask = np.arange(n_members) >= n_logistic
    if family == Family.SUMMED_RBF:
        rbf_mask = np.ones(n_members, dtype=bool)
    return centers, log_steep, n_logistic, rbf_mask


def initial_dictionary(dataset, family, n_members, seed=0):
    """Untrained dictionary with the same seeded placement training starts from.

    Useful for pure closed-form fits of conjunctive families; polynomial
    families just get their fixed multi-index dictionary.
    """
    family = Family(family)
    if n_members < 1:
        raise DomainError("need n_members >= 1")
    if family in POLYNOMIAL_FAMILIES:
        return Dictionary(family, dataset.m, polynomial_multi_indices(dataset.m, n_members))
    rng = np.random.default_rng(seed)
    centers, log_steep, n_logistic, _ = _init_shape_params(
        dataset, family, n_members, rng
    )
    return Dictionary.from_packed(family, centers, np.exp(log_steep), n_logistic)


def sgd_fit(dataset, family, n_members, cfg=None, epoch_callback=None):
    """Learn dictionary parameters by minibatch SGD with periodic K refits.

    Centers initialize uniformly over the data's per-dimension range,
    log-steepness uniformly in [log 0.5, log 3]. K is
    initialized by one closed-form fit and replaced by a fresh closed-form fit
    every cfg.refit_k_every epochs; between refits, gradient steps move the
    member parameters (plus K itself when cfg.descend_k). For AugSILL the
    member budget splits ceil(n/2) logistic members first, then RBF members.

    Polynomial families carry no shape parameters: their multi-indices are
    fixed, so training reduces to the closed-form fit (history is constant),
    unless cfg.descend_k asks for explicit gradient steps on K.

    Returns (model, loss_history) with one full-dataset loss per epoch;
    epoch_callback(epoch, loss, model), when given, runs after each epoch.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    if dataset.mode != Mode.DISCRETE_PAIRS:
        raise DomainError("sgd training needs a discrete-pairs dataset")
    if n_members < 1:
        raise DomainError("need n_members >= 1")
    family = Family(family)
    m = dataset.m

    if family in POLYNOMIAL_FAMILIES and not cfg.descend_k:
        d = Dictionary(family, m, polynomial_multi_indices(m, n_members))
        model = fit_k(dataset, d, cfg.ridge)
        loss, _ = objective_and_gradient(model, dataset)
        history = [loss] * cfg.epochs
        if epoch_callback is not None:
            for epoch in range(cfg.epochs):
                epoch_callback(epoch, loss, model)
        return model, history

    rng = np.random.default_rng(cfg.seed)
    if family in POLYNOMIAL_FAMILIES:
        return _descend_k_only(dataset, family, n_members, cfg, rng, epoch_callback)

    centers, log_steep, n_logistic, rbf_mask = _init_shape_params(
        dataset, family, n_members, rng
    )

    def current_dictionary():
        return Dictionary.from_packed(family, centers, np.exp(log_steep), n_logistic)

    x_in, x_out = dataset.inputs, dataset.targets
    r = dataset.n_rows
    k = fit_k(dataset, current_dictionary(), cfg.ridge).K
    lr = cfg.learning_rate
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(r)
        for start in range(0, r, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            steep = np.exp(log_steep)
            _, d_k, g_c, g_a = _loss_and_grads_packed(
                family, centers, steep, rbf_mask, k, x_in[idx], x_out[idx], True
            )
            centers -= lr * g_c
            log_steep -= lr * (g_a * steep)  # chain rule through exp
            if cfg.descend_k:
                k -= lr * d_k
        if (epoch + 1) % cfg.refit_k_every == 0:
            k = fit_k(dataset, current_dictionary(), cfg.ridge).K
        loss, _, _, _ = _loss_and_grads_packed(
            family, centers, np.exp(log_steep), rbf_mask, k, x_in, x_out, False
        )
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch}",
                last_finite_epoch=epoch - 1,
            )
        history.append(loss)
        if epoch_callback is not None:
            epoch_callback(
                epoch, loss,
                KoopmanModel(current_dictionary(), k, dataset.mode, dataset.dt),
            )
        lr *= cfg.lr_decay
    model = KoopmanModel(current_dictionary(), k, dataset.mode, dataset.dt)
    return model, history


def _descend_k_only(dataset, family, n_members, cfg, rng, epoch_callback):
    """SGD on K alone for a fixed polynomial dictionary (descend_k=True)."""
    d = Dictionary(family, dataset.m, polynomial_multi_indices(dataset.m, n_members))
    k = fit_k(dataset, d, cfg.ridge).K
    psi_in = lift_many(d, dataset.inputs)
    psi_out = lift_many(d, dataset.targets)
    r = dataset.n_rows
    lr = cfg.learning_rate
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(r)
        for start in range(0, r, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            res = psi_out[idx] - psi_in[idx] @ k.T
            k -= lr * (-2.0 / len(idx)) * (res.T @ psi_in[idx])
        if (epoch + 1) % cfg.refit_k_every == 0:
            k = fit_k(dataset, d, cfg.ridge).K
        res = psi_out - psi_in @ k.T
        loss = float(np.sum(res * res)) / r
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch}",
                last_finite_epoch=epoch - 1,
            )
        history.append(loss)
        if epoch_callback is not None:
            epoch_callback(epoch, loss, KoopmanModel(d, k, dataset.mode, dataset.dt))
        lr *= cfg.lr_decay
    return KoopmanModel(d, k, dataset.mode, dataset.dt), history


# -- matching pursuit ---------------------------------------------------------------


@dataclass
class PursuitPool:
    """Finite candidate pool: every combination of kind, per-dimension lattice
    centers, and a shared steepness level, in deterministic enumeration order."""

    kinds: tuple
    center_grids: tuple  # one 1-D array of lattice points per dimension
    steepness_levels: tuple

    def __post_init__(self):
        self.kinds = tuple(Kind(k) for k in self.kinds)
        self.center_grids = tuple(np.asarray(g, dtype=float) for g in self.center_grids)
        self.steepness_levels = tuple(float(s) for s in self.steepness_levels)
        if not self.kinds or not self.steepness_levels:
            raise PoolError("pool needs at least one kind and one steepness level")
        if any(s <= 0 for s in self.steepness_levels):
            raise PoolError("steepness levels must be positive")
        if any(g.size == 0 for g in self.center_grids):
            raise PoolError("empty center lattice")

    @property
    def size(self):
        n = len(self.kinds) * len(self.steepness_levels)
        for g in self.center_grids:
            n *= g.size
        return n

    def candidates(self):
        """Materialize all candidates, index order fixed: kind-major, then
        lattice point (itertools.product order), then steepness level."""
        out = []
        for kind in self.kinds:
            for centers in itertools.product(*self.center_grids):
                for s in self.steepness_levels:
                    out.append(
                        ConjunctiveFunction(
                            kind, tuple(ScalarBasisParams(c, s) for c in centers)
                        )
                    )
        return out

    @staticmethod
    def for_data(inputs, points_per_dim=9, steepness_levels=(1.0, 3.0, 10.0),
                 kinds=(Kind.LOGISTIC, Kind.RBF)):
        """Default pool: per-dimension lattice spanning the data range."""
        inputs = np.asarray(inputs, dtype=float)
        grids = tuple(
            np.linspace(inputs[:, i].min(), inputs[:, i].max(), points_per_dim)
            for i in range(inputs.shape[1])
        )
        return PursuitPool(kinds=kinds, center_grids=grids,
                           steepness_levels=steepness_levels)


def matching_pursuit_fit(dataset, pool, n_members, ridge=0.0):
    """Greedy dictionary growth from the [1, y] base.

    Each round refits the measurement-propagation regression for every
    remaining candidate appended to the current dictionary and keeps the one
    with the smallest residual (ties break to the lowest pool index). The
    recorded objective is the sum of squared residuals over the constant and
    state rows -- the block every candidate competes on -- which a closed-form
    refit can only shrink as columns are added, so the trace is monotone at
    ridge=0. Returns (model, trace) with one residual per addition; the model
    is the full closed-form fit over the final dictionary.
    """
    if ridge is None:
        ridge = 0.0
    if ridge < 0:
        raise DomainError(f"ridge must be >= 0, got {ridge}")
    cands = pool.candidates()
    if len(cands) < n_members:
        raise PoolError(f"pool of {len(cands)} cannot supply {n_members} members")
    bad_dim = [f for f in cands if f.m != dataset.m]
    if bad_dim:
        raise PoolError("pool candidate dimension != dataset dimension")
    m = dataset.m
    x = dataset.inputs
    if dataset.mode == Mode.DISCRETE_PAIRS:
        fixed_targets = np.hstack([np.ones((dataset.n_rows, 1)), dataset.targets])
    else:
        # constant row has zero time derivative; state rows carry dy/dt
        fixed_targets = np.hstack([np.zeros((dataset.n_rows, 1)), dataset.targets])
    cand_cols = np.empty((dataset.n_rows, len(cands)))
    for j, f in enumerate(cands):
        cand_cols[:, j] = conjunctive_values(f, x)

    base = np.hstack([np.ones((dataset.n_rows, 1)), x])
    chosen = []
    trace = []
    remaining = list(range(len(cands)))
    design = base
    for _ in range(n_members):
        best_idx, best_res = None, np.inf
        trial = np.empty((dataset.n_rows, design.shape[1] + 1))
        trial[:, :-1] = design
        for idx in remaining:
            trial[:, -1] = cand_cols[:, idx]
            w, _ = ridge_lstsq(trial, fixed_targets, ridge)
            res = float(np.sum((fixed_targets - trial @ w) ** 2))
            if res < best_res:
                best_res, best_idx = res, idx
        chosen.append(best_idx)
        remaining.remove(best_idx)
        design = np.hstack([design, cand_cols[:, best_idx : best_idx + 1]])
        trace.append(best_res)

    members = [cands[i] for i in chosen]
    members.sort(key=lambda f: 0 if f.kind == Kind.LOGISTIC else 1)
    if any(f.kind == Kind.RBF for f in members):
        d = Dictionary(Family.AUGSILL, m, tuple(members))
    else:
        d = Dictionary(Family.SILL, m, tuple(members))
    model = fit_k(dataset, d, ridge)
    return model, trace
