"""Dictionary learning: minibatch SGD over member parameters, and greedy
matching pursuit over a fixed candidate pool.

SGD trains the shaped families (sill, augsill, summedrbf) in one epoch loop.
Minibatch gradient steps move the centers/steepnesses, with one member-kernel
call per minibatch on its inputs and targets stacked; every REFIT_K_EVERY
epochs K is replaced by the closed-form least-squares solve, which is exact
because the inner problem is linear given the shapes. Each epoch evaluates
the members once per distinct state of the data (a trajectory ensemble's
targets are mostly its inputs one step on) and uses that one lift for the
refit and for the epoch loss.
Polynomial families have no shapes to train: fit them with solver.fit_k.
Steepness is parameterized as exp(u) with u unconstrained; gradients chain
through the exponential. Training operates on discrete snapshot pairs;
continuous-mode fitting stays in the closed-form solver.

Matching pursuit grows a dictionary from the [1, y] base one candidate per
round. It ranks all candidates at once by a projection score, a lower bound
on each candidate's refit residual, and solves directly only the candidates
whose bound can still beat the best direct residual, so it picks what
refitting every candidate would. Both algorithms are deterministic under a
fixed seed.
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
    TRAINABLE_FAMILIES,
    assemble_lift,
    conjunctive_members,
    lift_many,
    member_sensitivities_packed,
    member_values_packed,
    polynomial_multi_indices,
)
from .errors import (
    DomainError,
    ParameterDomainError,
    PoolError,
    TrainingDivergedError,
    UnsupportedFamilyError,
)
from .solver import KoopmanModel, fit_k, ridge_lstsq, solve_k
from .systems import Mode

# Per-epoch learning-rate factor and the epoch cadence of the closed-form K
# refit in sgd_fit.
LR_DECAY = 0.999
REFIT_K_EVERY = 10

# Matching pursuit: relative slack between projection bounds and direct-solve
# residuals, and the candidate rows deflated per in-place block (bounds the
# temporaries to (PURSUIT_BLOCK, rows) floats).
PURSUIT_RTOL = 1e-9
PURSUIT_BLOCK = 64


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 32
    learning_rate: float = 1e-2
    seed: int = 0
    ridge: float = None  # forwarded to the closed-form refits

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterDomainError("epochs and batch_size must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ParameterDomainError(f"bad learning rate {self.learning_rate}")


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


def _shape_grads_packed(family, c, a, rbf, k, x_in, x_out):
    """Gradients of the batch loss w.r.t. every center and raw steepness,
    from packed parameter arrays.

    Inputs and targets go through the member kernel and the lift as one
    stacked batch; both work row by row, so the halves carry the bits of two
    separate calls."""
    b, m = x_in.shape
    x = np.vstack([x_in, x_out])
    v, s = member_sensitivities_packed(family, c, a, rbf, x)
    psi = assemble_lift(x, v)
    res = psi[b:] - psi[:b] @ k.T
    # Member j feeds lifted column q = 1+m+j of both liftings; the chain rule
    # pulls res through the output lift directly and through K on the input.
    res_nl = res[:, 1 + m :]
    back_nl = (res @ k)[:, 1 + m :]
    # d/dmu = -a*S, d/dalpha = (y - c)*S  (see member_sensitivities_packed)
    d_mu = -a[None] * s
    d_alpha = (x[:, None, :] - c[None]) * s
    g_center = (2.0 / b) * (
        np.einsum("tj,tji->ji", res_nl, d_mu[b:])
        - np.einsum("tj,tji->ji", back_nl, d_mu[:b])
    )
    g_steep = (2.0 / b) * (
        np.einsum("tj,tji->ji", res_nl, d_alpha[b:])
        - np.einsum("tj,tji->ji", back_nl, d_alpha[:b])
    )
    return g_center, g_steep


def objective_and_gradient(model, batch):
    """Mean squared lifted one-step residual over the batch, with gradients
    w.r.t. K and (for trainable families) every center and steepness."""
    if batch.mode != Mode.DISCRETE_PAIRS:
        raise DomainError("training objective is defined on discrete pairs")
    d = model.dictionary
    psi_in = lift_many(d, batch.inputs)
    res, loss = _residual(psi_in, lift_many(d, batch.targets), model.K)
    grads = GradientBundle(d_k=(-2.0 / batch.n_rows) * (res.T @ psi_in))
    if d.family not in POLYNOMIAL_FAMILIES:
        grads.d_center, grads.d_steepness = _shape_grads_packed(
            d.family, d.centers, d.steepness, d.is_rbf, model.K, batch.inputs, batch.targets
        )
    return loss, grads


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

    Trains sill, augsill and summedrbf; any other family raises
    UnsupportedFamilyError. Centers initialize uniformly over the data's
    per-dimension range, log-steepness uniformly in [log 0.5, log 3]. For
    AugSILL the member budget splits ceil(n/2) logistic members first, then
    RBF members. K starts as the closed-form solve on the initial lift. Each
    epoch runs minibatch gradient steps on the member parameters, lifts the
    data once (the distinct states among inputs and targets go through the
    member kernel once), replaces K by the closed-form solve on that lift
    every REFIT_K_EVERY epochs, and scores the epoch loss on the same lift.
    The learning rate shrinks by LR_DECAY after every epoch.

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
    if family not in TRAINABLE_FAMILIES:
        raise UnsupportedFamilyError(
            f"sgd trains sill, augsill or summedrbf, not {family.value}; "
            "fit fixed dictionaries with solver.fit_k"
        )
    x_in, x_out = dataset.inputs, dataset.targets
    r = dataset.n_rows
    rng = np.random.default_rng(cfg.seed)
    centers, log_steep, rbf_mask = _init_shape_params(dataset, family, n_members, rng)
    # In a trajectory ensemble the targets are the inputs one step on, so the
    # two sets share most rows: evaluate the members once per distinct state.
    # Member values depend on a row's values alone (0.0 and -0.0 give the
    # same ones); the lifts take their y columns from the original rows.
    states, where = np.unique(np.vstack([x_in, x_out]), axis=0, return_inverse=True)

    def lifted_pair():
        steep = np.exp(log_steep)
        vals = member_values_packed(family, centers, steep, rbf_mask, states)[where]
        return assemble_lift(x_in, vals[:r]), assemble_lift(x_out, vals[r:])

    def model(k):
        d = Dictionary.from_packed(family, centers, np.exp(log_steep), rbf_mask)
        return KoopmanModel(d, k, dataset.mode, dataset.dt)

    psi_in, psi_out = lifted_pair()
    k = solve_k(psi_in, psi_out, cfg.ridge)
    lr = cfg.learning_rate
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(r)
        for start in range(0, r, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            steep = np.exp(log_steep)
            g_c, g_a = _shape_grads_packed(
                family, centers, steep, rbf_mask, k, x_in[idx], x_out[idx]
            )
            centers -= lr * g_c
            log_steep -= lr * (g_a * steep)  # chain rule through exp
        steep = np.exp(log_steep)
        if not (np.isfinite(centers).all() and (np.isfinite(steep) & (steep > 0)).all()):
            raise TrainingDivergedError(f"centers or steepnesses left their domain at "
                                        f"epoch {epoch}", last_finite_epoch=epoch - 1)
        psi_in, psi_out = lifted_pair()
        if (epoch + 1) % REFIT_K_EVERY == 0:
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
        lr *= LR_DECAY
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
        if not all(0 < s < math.inf for s in self.steepness_levels):
            raise PoolError("steepness levels must be finite and positive")
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


def _deflate(rows, basis):
    """Remove the span of basis's orthonormal columns from every row of the
    (n, r) array rows, in place, PURSUIT_BLOCK rows at a time."""
    for start in range(0, len(rows), PURSUIT_BLOCK):
        block = rows[start : start + PURSUIT_BLOCK]
        block -= (block @ basis) @ basis.T


def matching_pursuit_fit(dataset, pool, n_members, ridge=0.0):
    """Greedy dictionary growth from the [1, y] base.

    Each round appends to the current dictionary the candidate whose
    closed-form refit of the measurement-propagation regression leaves the
    smallest residual (ties break to the lowest pool index). The residual is
    the sum of squared errors over the constant and state rows -- the block
    every candidate competes on -- which a refit can only shrink as columns
    are added, so the trace is monotone at ridge=0.

    Candidates are ranked by projection, as in orthogonal matching pursuit:
    with R the targets' residual against the current design and c_perp a
    candidate's values with that design projected out, ||R||^2 -
    ||R^T c_perp||^2 / ||c_perp||^2 is the unregularized least-squares
    residual of the enlarged design. Ridge shrinkage and lstsq's rcond
    truncation can only raise a residual above that, so the score is a lower
    bound on the residual of the direct solve for every ridge >= 0. The
    direct solve (ridge_lstsq on the enlarged design, the same call for
    every ridge) is then run on candidates in order of increasing bound until
    the next bound exceeds the best direct residual by more than a rounding
    slack, and the smallest direct residual wins. A bound near the top of
    the order can belong to a column lstsq truncates, or to one a large
    ridge shrinks; the direct solve then scores it higher and the next
    candidates get their turn. Winners, tie-breaking and the recorded
    residuals are therefore those of solving every candidate directly, and
    each trace entry is the winner's direct-solve residual.

    Returns (model, trace) with one residual per addition; the model is the
    full closed-form fit over the final dictionary, at the given ridge (None
    means 0.0).
    """
    if n_members < 1:
        raise DomainError("need n_members >= 1")
    if ridge is None:
        ridge = 0.0
    dataset.check_finite()
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

    def values(j):
        # One candidate per kernel call keeps the temporaries at (rows, 1, m).
        return member_values_packed(
            Family.AUGSILL, c[j : j + 1], a[j : j + 1], rbf[j : j + 1], x
        )[:, 0]

    # cand[j] holds candidate j's values, deflated against the design so far.
    cand = np.empty((pool.size, dataset.n_rows))
    for j in range(pool.size):
        cand[j] = values(j)
    design = np.hstack([np.ones((dataset.n_rows, 1)), x])
    basis = np.linalg.qr(design)[0]
    _deflate(cand, basis)
    floor = np.finfo(float).eps * float(np.sum(fixed_targets**2))

    chosen = []
    trace = []
    for _ in range(n_members):
        resid = fixed_targets - basis @ (basis.T @ fixed_targets)
        total = float(np.sum(resid * resid))
        proj = cand @ resid
        norm2 = np.einsum("jr,jr->j", cand, cand)
        bound = total - np.einsum("jk,jk->j", proj, proj) / np.where(norm2 > 0, norm2, np.inf)
        bound[chosen] = np.inf
        # Projection and direct solves round differently; the slack keeps
        # every candidate that may tie or beat the best direct residual. The
        # eps-scale floor covers targets that [1, y] already fits, where every
        # residual is rounding noise.
        slack = PURSUIT_RTOL * total + floor

        best_res, best_idx = np.inf, pool.size
        trial = np.empty((dataset.n_rows, design.shape[1] + 1))
        trial[:, :-1] = design
        # chosen candidates carry infinite bounds and sort last
        for idx in np.argsort(bound, kind="stable")[: pool.size - len(chosen)]:
            if bound[idx] > best_res + slack:
                break
            trial[:, -1] = values(idx)
            w, _ = ridge_lstsq(trial, fixed_targets, ridge)
            res = float(np.sum((fixed_targets - trial @ w) ** 2))
            if (res, idx) < (best_res, best_idx):
                best_res, best_idx = res, int(idx)
        chosen.append(best_idx)
        trace.append(best_res)
        col = values(best_idx)
        design = np.hstack([design, col[:, None]])
        # Two Gram-Schmidt passes keep the basis orthonormal to rounding.
        for _ in range(2):
            col -= basis @ (basis.T @ col)
        norm = np.linalg.norm(col)
        if norm > 0:
            u = (col / norm)[:, None]
            _deflate(cand, u)
            basis = np.hstack([basis, u])

    keep = sorted(chosen, key=lambda i: rbf[i])  # stable: logistic members first
    family = Family.AUGSILL if rbf[keep].any() else Family.SILL
    d = Dictionary.from_packed(family, c[keep], a[keep], rbf[keep])
    model = fit_k(dataset, d, ridge)
    return model, trace
