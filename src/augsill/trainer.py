"""Dictionary learning: minibatch SGD over member parameters, and greedy
matching pursuit over a fixed candidate pool.

SGD is one epoch loop for every family. Minibatch gradient steps move the
centers/steepnesses (plus K itself when asked); every cfg.refit_k_every
epochs K is replaced by the closed-form least-squares solve, which is exact
because the inner problem is linear given the shapes. Each epoch lifts the
full data once and uses that one lift for the refit and for the epoch loss;
polynomial families have no shapes, so their lift is computed once.
Steepness is parameterized as exp(u) with u unconstrained; gradients chain
through the exponential. Both algorithms are deterministic under a fixed
seed. Training operates on discrete snapshot pairs; continuous-mode fitting
stays in the closed-form solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import (
    Dictionary,
    Family,
    Kind,
    POLYNOMIAL_FAMILIES,
    assemble_lift,
    conjunctive_members,
    lift_many,
    member_sensitivities_packed,
    member_values_packed,
    polynomial_multi_indices,
)
from .errors import DomainError, ParameterDomainError, PoolError, TrainingDivergedError
from .solver import KoopmanModel, fit_k, ridge_lstsq, solve_k
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


def _residual(psi_in, psi_out, k):
    """Lifted one-step residual rows psi_out - psi_in K^T and their mean
    squared norm, the training loss."""
    res = psi_out - psi_in @ k.T
    return res, float(np.sum(res * res)) / len(res)


def _loss_and_grads_packed(family, c, a, rbf, k, x_in, x_out):
    """Batch loss plus gradients w.r.t. K and every center and raw
    steepness, all from packed parameter arrays."""
    m = x_in.shape[1]
    b = x_in.shape[0]
    v_in, s_in = member_sensitivities_packed(family, c, a, rbf, x_in)
    v_out, s_out = member_sensitivities_packed(family, c, a, rbf, x_out)
    psi_in = assemble_lift(x_in, v_in)
    res, loss = _residual(psi_in, assemble_lift(x_out, v_out), k)
    d_k = (-2.0 / b) * (res.T @ psi_in)
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
        res, loss = _residual(psi_in, lift_many(d, batch.targets), model.K)
        return loss, GradientBundle(d_k=(-2.0 / batch.n_rows) * (res.T @ psi_in))
    loss, d_k, g_c, g_a = _loss_and_grads_packed(
        d.family, d.centers, d.steepness, d.is_rbf, model.K, batch.inputs, batch.targets
    )
    return loss, GradientBundle(d_k=d_k, d_center=g_c, d_steepness=g_a)


def _init_shape_params(dataset, family, n_members, rng):
    """Seeded starting placement: centers uniform over the data box,
    log-steepness uniform in [log 0.5, log 3]; augsill's RBF members follow
    its ceil(n/2) logistic ones."""
    m = dataset.m
    lo, hi = dataset.inputs.min(axis=0), dataset.inputs.max(axis=0)
    centers = rng.uniform(lo, hi, size=(n_members, m))
    log_steep = rng.uniform(math.log(0.5), math.log(3.0), size=(n_members, m))
    n_logistic = {Family.SILL: n_members, Family.AUGSILL: (n_members + 1) // 2}.get(family, 0)
    return centers, log_steep, np.arange(n_members) >= n_logistic


def initial_dictionary(dataset, family, n_members, seed=0):
    """Untrained dictionary with the same seeded placement training starts from.

    Useful for pure closed-form fits of conjunctive families; polynomial
    families just get their fixed multi-index dictionary.
    """
    family = Family(family)
    if n_members < 1:
        raise DomainError("need n_members >= 1")
    dataset.check_finite()
    if family in POLYNOMIAL_FAMILIES:
        return Dictionary(family, dataset.m, polynomial_multi_indices(dataset.m, n_members))
    rng = np.random.default_rng(seed)
    centers, log_steep, is_rbf = _init_shape_params(dataset, family, n_members, rng)
    return Dictionary.from_packed(family, centers, np.exp(log_steep), is_rbf)


def sgd_fit(dataset, family, n_members, cfg=None, epoch_callback=None):
    """Learn dictionary parameters by minibatch SGD with periodic K refits.

    Centers initialize uniformly over the data's per-dimension range,
    log-steepness uniformly in [log 0.5, log 3]. For AugSILL the member
    budget splits ceil(n/2) logistic members first, then RBF members. K
    starts as the closed-form solve on the initial lift. Each epoch runs
    minibatch gradient steps on the member parameters (plus K itself when
    cfg.descend_k), lifts the full data once, replaces K by the closed-form
    solve on that lift every cfg.refit_k_every epochs, and scores the epoch
    loss on the same lift.

    Polynomial families carry no shape parameters: their multi-indices are
    fixed, so without cfg.descend_k training is the closed-form fit alone
    (history is constant); with it, the steps move K only.

    Returns (model, loss_history) with one full-dataset loss per epoch;
    epoch_callback(epoch, loss, model), when given, runs after each epoch.
    Raises TrainingDivergedError once the loss, a center or a steepness
    stops being finite, or a steepness reaches 0.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    if dataset.mode != Mode.DISCRETE_PAIRS:
        raise DomainError("sgd training needs a discrete-pairs dataset")
    if n_members < 1:
        raise DomainError("need n_members >= 1")
    dataset.check_finite()
    family = Family(family)
    poly = family in POLYNOMIAL_FAMILIES
    x_in, x_out = dataset.inputs, dataset.targets
    rng = np.random.default_rng(cfg.seed)
    if poly:
        d = Dictionary(family, dataset.m, polynomial_multi_indices(dataset.m, n_members))
    else:
        centers, log_steep, rbf_mask = _init_shape_params(dataset, family, n_members, rng)

    def lifted_pair():
        if poly:
            return lift_many(d, x_in), lift_many(d, x_out)
        steep = np.exp(log_steep)
        return tuple(
            assemble_lift(x, member_values_packed(family, centers, steep, rbf_mask, x))
            for x in (x_in, x_out)
        )

    def model(k):
        dd = d if poly else Dictionary.from_packed(family, centers, np.exp(log_steep), rbf_mask)
        return KoopmanModel(dd, k, dataset.mode, dataset.dt)

    psi_in, psi_out = lifted_pair()
    k = solve_k(psi_in, psi_out, cfg.ridge)
    if poly and not cfg.descend_k:
        # Nothing moves: every epoch would refit the same K on the same lift.
        _, loss = _residual(psi_in, psi_out, k)
        fitted = model(k)
        if epoch_callback is not None:
            for epoch in range(cfg.epochs):
                epoch_callback(epoch, loss, fitted)
        return fitted, [loss] * cfg.epochs

    r = dataset.n_rows
    lr = cfg.learning_rate
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(r)
        for start in range(0, r, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if poly:
                res, _ = _residual(psi_in[idx], psi_out[idx], k)
                d_k = (-2.0 / len(idx)) * (res.T @ psi_in[idx])
            else:
                steep = np.exp(log_steep)
                _, d_k, g_c, g_a = _loss_and_grads_packed(
                    family, centers, steep, rbf_mask, k, x_in[idx], x_out[idx]
                )
                centers -= lr * g_c
                log_steep -= lr * (g_a * steep)  # chain rule through exp
            if cfg.descend_k:
                k -= lr * d_k
        if not poly:
            steep = np.exp(log_steep)
            if not (np.isfinite(centers).all() and (np.isfinite(steep) & (steep > 0)).all()):
                raise TrainingDivergedError(f"centers or steepnesses left their domain at "
                                            f"epoch {epoch}", last_finite_epoch=epoch - 1)
            psi_in, psi_out = lifted_pair()
        if (epoch + 1) % cfg.refit_k_every == 0:
            k = solve_k(psi_in, psi_out, cfg.ridge)
        _, loss = _residual(psi_in, psi_out, k)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch}",
                last_finite_epoch=epoch - 1,
            )
        history.append(loss)
        if epoch_callback is not None:
            epoch_callback(epoch, loss, model(k))
        lr *= cfg.lr_decay
    return model(k), history


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
        if not self.center_grids or any(g.size == 0 for g in self.center_grids):
            raise PoolError("empty center lattice")

    @property
    def size(self):
        n = len(self.kinds) * len(self.steepness_levels)
        for g in self.center_grids:
            n *= g.size
        return n

    def packed(self):
        """All candidates as (centers, steepness, is_rbf) arrays of shape
        (size, m), (size, m), (size,). Index order is fixed: kind-major, then
        lattice point (last dimension fastest), then steepness level."""
        m = len(self.center_grids)
        lattice = np.stack(np.meshgrid(*self.center_grids, indexing="ij"), -1).reshape(-1, m)
        levels = np.asarray(self.steepness_levels)
        kind, point, level = np.indices((len(self.kinds), len(lattice), len(levels))).reshape(3, -1)
        is_rbf = np.array([k == Kind.RBF for k in self.kinds])
        return lattice[point], np.repeat(levels[level, None], m, axis=1), is_rbf[kind]

    def candidates(self):
        """ConjunctiveFunction views of packed(), in its index order."""
        return list(conjunctive_members(*self.packed()))

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
    c, a, rbf = pool.packed()
    if pool.size < n_members:
        raise PoolError(f"pool of {pool.size} cannot supply {n_members} members")
    if c.shape[1] != dataset.m:
        raise PoolError("pool candidate dimension != dataset dimension")
    x = dataset.inputs
    if dataset.mode == Mode.DISCRETE_PAIRS:
        fixed_targets = np.hstack([np.ones((dataset.n_rows, 1)), dataset.targets])
    else:
        # constant row has zero time derivative; state rows carry dy/dt
        fixed_targets = np.hstack([np.zeros((dataset.n_rows, 1)), dataset.targets])
    # One candidate per kernel call keeps the temporaries at (rows, 1, m).
    cand_cols = np.empty((dataset.n_rows, pool.size))
    for j in range(pool.size):
        cand_cols[:, j] = member_values_packed(
            Family.AUGSILL, c[j : j + 1], a[j : j + 1], rbf[j : j + 1], x
        )[:, 0]

    base = np.hstack([np.ones((dataset.n_rows, 1)), x])
    chosen = []
    trace = []
    remaining = list(range(pool.size))
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

    keep = sorted(chosen, key=lambda i: rbf[i])  # stable: logistic members first
    family = Family.AUGSILL if rbf[keep].any() else Family.SILL
    d = Dictionary.from_packed(family, c[keep], a[keep], rbf[keep])
    model = fit_k(dataset, d, ridge)
    return model, trace
