"""Dictionary learning: variable projection and minibatch SGD over member
shapes, and greedy matching pursuit over a fixed candidate pool.

Both shape trainers take the shaped families (sill, augsill, summedrbf) on
discrete snapshot pairs, start from the same seeded placement, and pass the
same entry checks. Steepness is parameterized as exp(u) with u
unconstrained; gradients chain through the exponential. SGD takes the
chain rule through the member kernel's sensitivities from dictionaries;
variable projection weights the kernel's factor first and contracts that one
product into both shape gradients. Polynomial families have no shapes to
train: fit them with solver.fit_k, which also serves continuous mode.

Variable projection (Golub & Pereyra 1973), the trainer of compare and of
fit --method varpro, removes K exactly: K is linear given the shapes, so
each evaluation solves it in closed form at a ridge frozen for the run (by
default the adaptive one of the initial lift), and L-BFGS-B moves only
the centers and log-steepnesses along the exact gradient the envelope
theorem gives. Each evaluation runs the member kernel once on the distinct
states of the data (a trajectory ensemble's targets are mostly its inputs
one step on).

SGD alternates as EDMD with dictionary learning does. No command runs it;
it stays while perfbench/tracing.py binds sgd_fit and TrainConfig.
Minibatch gradient steps move the shapes, with one member-kernel call per
minibatch on its inputs and targets stacked; every REFIT_K_EVERY epochs K is
replaced by the closed-form solve. Each epoch lifts the distinct states
once, for the refit and for the epoch loss.
Shapes and minibatches are held dimension-major, (m, N) and (m, 2b), the
layout of the kernel's sensitivities, with every RBF member after the
logistic ones, the order the kernel requires.

Matching pursuit grows a dictionary from the [1, y] base one candidate per
round. It ranks all candidates at once by a projection score, a lower bound
on each candidate's refit residual, and solves directly only the candidates
whose bound can still beat the best direct residual, so it picks what
refitting every candidate would. All three algorithms are deterministic
under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.sparse import csr_array

from .dictionaries import (
    Dictionary,
    Family,
    Kind,
    POLYNOMIAL_FAMILIES,
    TRAINABLE_FAMILIES,
    _param_sensitivities,
    assemble_lift,
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
from .solver import KoopmanModel, adaptive_ridge, fit_k, ridge_lstsq, solve_k
from .systems import Mode

# Per-epoch learning-rate factor and the epoch cadence of the closed-form K
# refit in sgd_fit.
LR_DECAY = 0.999
REFIT_K_EVERY = 10

# varpro_fit stops once an L-BFGS iteration lowers the loss, normalised to 1
# at the initial dictionary, by at most this much (scipy's ftol). Its box
# |log-steepness| <= VARPRO_LOG_STEEPNESS_BOUND keeps every steepness a line
# search tries finite and > 0 (exp overflows past 709.78).
VARPRO_FTOL = 1e-6
VARPRO_LOG_STEEPNESS_BOUND = 700.0

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


def _shape_grads_packed(family, c, a, rbf, k, x):
    """Gradients of the batch loss w.r.t. every center and raw steepness.

    Everything is dimension-major, the layout of the kernel's sensitivities:
    centers c, steepnesses a and both gradients are (m, N), and x is (m, 2b),
    a minibatch's b inputs followed by their b targets. RBF rows of rbf must
    follow every logistic row, as the kernel requires.

    Inputs and targets go through the member kernel and the lift as one
    stacked batch; both work row by row, so the halves carry the bits of two
    separate calls."""
    m, b = x.shape[0], x.shape[1] // 2
    v, s = member_sensitivities_packed(family, c.T, a.T, rbf, x.T)
    psi = assemble_lift(x.T, v)
    res = psi[b:] - psi[:b] @ k.T
    # Member j feeds lifted column q = 1+m+j of both liftings; the chain rule
    # pulls res through the output lift directly and through K on the input.
    res_nl = res[:, 1 + m :]
    back_nl = (res @ k)[:, 1 + m :]
    d_par = _param_sensitivities(c, a, x, s)
    g = (2.0 / b) * (
        np.einsum("tj,itj->ij", res_nl, d_par[:, b:])
        - np.einsum("tj,itj->ij", back_nl, d_par[:, :b])
    )
    return g[:m], g[m:]


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


def _shaped_start(trainer, dataset, family, n_members, seed):
    """Entry checks shared by sgd_fit and varpro_fit, whose messages name
    the trainer, then the seeded starting placement: returns (family, rng,
    (centers, log_steep, rbf_mask)), rng having drawn the placement."""
    if dataset.mode != Mode.DISCRETE_PAIRS:
        raise DomainError(f"{trainer} training needs a discrete-pairs dataset")
    if n_members < 1:
        raise DomainError("need n_members >= 1")
    dataset.check_finite()
    family = Family(family)
    if family not in TRAINABLE_FAMILIES:
        raise UnsupportedFamilyError(
            f"{trainer} trains sill, augsill or summedrbf, not {family.value}; "
            "fit fixed dictionaries with solver.fit_k"
        )
    rng = np.random.default_rng(seed)
    return family, rng, _init_shape_params(dataset, family, n_members, rng)


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


class _DistinctStates:
    """The distinct rows among a dataset's inputs and targets, and the lifts
    of both from member values on those rows alone.

    In a trajectory ensemble the targets are the inputs one step on, so the
    two sets share most rows and the trainers evaluate the members once per
    distinct state. Member values depend on a row's values alone (0.0 and
    -0.0 give the same ones); the lifts take their y columns from the
    original rows.
    """

    def __init__(self, x_in, x_out):
        self.x_in, self.x_out = x_in, x_out
        # where[i] is the index in rows of row i of the inputs stacked over
        # the targets.
        self.rows, self.where = np.unique(np.vstack([x_in, x_out]), axis=0,
                                          return_inverse=True)

    def lift(self, vals):
        """(psi_in, psi_out) from the member values (states, N) on rows."""
        r = len(self.x_in)
        gathered = vals[self.where]
        return assemble_lift(self.x_in, gathered[:r]), assemble_lift(self.x_out, gathered[r:])


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
    family, rng, (centers, log_steep, rbf_mask) = _shaped_start(
        "sgd", dataset, family, n_members, cfg.seed)
    x_in, x_out = dataset.inputs, dataset.targets
    r = dataset.n_rows
    # Shape parameters and minibatches train dimension-major, (m, N) and
    # (m, 2b), the layout of the member kernel's sensitivities.
    centers, log_steep = centers.T.copy(), log_steep.T.copy()
    pairs = np.stack([x_in.T, x_out.T], axis=1)  # (m, 2, r)
    states = _DistinctStates(x_in, x_out)

    def lifted_pair():
        steep = np.exp(log_steep)
        return states.lift(member_values_packed(family, centers.T, steep.T, rbf_mask,
                                                states.rows))

    def model(k):
        d = Dictionary.from_packed(family, centers.T, np.exp(log_steep.T), rbf_mask)
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
            x = pairs[:, :, idx].reshape(dataset.m, -1)
            g_c, g_a = _shape_grads_packed(family, centers, steep, rbf_mask, k, x)
            centers -= lr * g_c
            log_steep -= lr * (g_a * steep)  # chain rule through exp
        steep = np.exp(log_steep)
        if not (np.isfinite(centers).all() and (np.isfinite(steep) & (steep > 0)).all()):
            raise TrainingDivergedError(f"centers or steepnesses left their domain at "
                                        f"epoch {epoch}", last_finite_epoch=epoch - 1)
        psi_in, psi_out = lifted_pair()
        if (epoch + 1) % REFIT_K_EVERY == 0:
            k = solve_k(psi_in, psi_out, cfg.ridge)
        res = psi_out - psi_in @ k.T
        loss = float(np.sum(res * res)) / r
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


# -- variable projection ------------------------------------------------------------


class _VarproObjective:
    """The function L-BFGS-B minimises in varpro_fit.

    theta is the flat vector [centers, log-steepness], each (m, N)
    dimension-major. Calling the objective gives lifted_objective's loss and
    gradient at theta, chained through the exponential and divided by the
    loss at theta0; the ridge is the given one or, when None, frozen at the
    adaptive one of theta0's lift. The latest evaluation is kept: L-BFGS-B
    ends each iteration on its new iterate, so the iteration callback reads
    it without a second evaluation.
    """

    def __init__(self, dataset, family, rbf, theta0, ridge=None):
        self.family, self.rbf = family, rbf
        self.shape = (2, dataset.m, len(rbf))
        self.states = _DistinctStates(dataset.inputs, dataset.targets)
        # A one at (where[i], i) sums per-row weights over each state's rows.
        n = len(self.states.where)
        self.scatter = csr_array((np.ones(n), (self.states.where, np.arange(n))),
                                 shape=(len(self.states.rows), n))
        self.ridge, self.last = ridge, None
        first = self.evaluate(theta0)
        self.ridge = first["ridge"]
        self.scale = first["loss"] if first["loss"] > 0 else 1.0

    def lifted_objective(self, c, a):
        """Variable-projection loss, its shape gradients and the solved K at
        the dimension-major (m, N) centers c and steepnesses a.

        The member kernel runs once, on the distinct states. K is solved out
        at the frozen ridge (on a first call without one, the adaptive one of
        this lift), and the loss is (||psi_out - psi_in K^T||^2 + ridge ||K||^2)
        / r. K minimises it, so
        by the envelope theorem its shape gradients are those of the residual
        term with K held fixed: the gradients _shape_grads_packed gives on
        the full data. Returns (loss, g_center, g_steepness, K, ridge);
        non-finite member values or loss raise TrainingDivergedError.
        """
        r, m = self.states.x_in.shape
        vals, s = member_sensitivities_packed(self.family, c.T, a.T, self.rbf,
                                              self.states.rows)
        if not np.isfinite(vals).all():
            raise TrainingDivergedError("member values became non-finite")
        psi_in, psi_out = self.states.lift(vals)
        ridge = adaptive_ridge(psi_in) if self.ridge is None else self.ridge
        k = solve_k(psi_in, psi_out, ridge)
        res = psi_out - psi_in @ k.T
        loss = (float(np.sum(res * res)) + ridge * float(np.sum(k * k))) / r
        if not np.isfinite(loss):
            raise TrainingDivergedError("loss became non-finite")
        # Member j feeds lifted column 1+m+j of both liftings: residual rows
        # pull on it directly through the output lift and through K on the
        # input lift. Summing both over the rows of each state weights its
        # sensitivities.
        w = self.scatter @ np.vstack([-(res @ k)[:, 1 + m :], res[:, 1 + m :]])
        # The parameter sensitivities are -a S and (y - c) S (see
        # member_sensitivities_packed), so both gradients contract the one
        # weighted factor ws = S w, formed in S's buffer, over the states.
        ws = np.multiply(s, w, out=s)
        q = ws.sum(axis=1)
        g_c = (-2.0 / r) * a * q
        g_a = (2.0 / r) * (np.einsum("is,isj->ij", self.states.rows.T, ws) - c * q)
        return loss, g_c, g_a, k, ridge

    def evaluate(self, theta):
        """{loss, grad, k, c, a, ridge} at theta, unnormalised."""
        key = theta.tobytes()
        if self.last is None or self.last["key"] != key:
            c, u = theta.reshape(self.shape).copy()  # kept beyond the optimiser's step
            a = np.exp(u)
            loss, g_c, g_a, k, ridge = self.lifted_objective(c, a)
            grad = np.concatenate([g_c.ravel(), (g_a * a).ravel()])  # chain rule through exp
            if not np.isfinite(grad).all():
                raise TrainingDivergedError("gradient became non-finite")
            self.last = dict(key=key, loss=loss, grad=grad, k=k, c=c, a=a, ridge=ridge)
        return self.last

    def __call__(self, theta):
        e = self.evaluate(theta)
        return e["loss"] / self.scale, e["grad"] / self.scale


def varpro_fit(dataset, family, n_members, max_iter=1000, seed=0, ridge=None):
    """Learn dictionary shapes by variable projection (Golub & Pereyra 1973).

    K is linear given the shapes, so every evaluation solves it out exactly
    and L-BFGS-B moves only the centers and log-steepnesses, from the seeded
    placement initial_dictionary gives. The ridge is frozen for the whole
    run: the given one, or for None the adaptive 1e-8 * sigma_max(psi_in)^2
    of the initial lift, so the loss
    (see _VarproObjective.lifted_objective) has an exact gradient. Loss and
    gradient are divided by the initial loss. Training stops after max_iter
    iterations, or once an iteration lowers the normalised loss by at most
    VARPRO_FTOL. Log-steepnesses stay within +-VARPRO_LOG_STEEPNESS_BOUND.
    Each evaluation runs the member kernel once on the distinct states among
    inputs and targets.

    Returns (model, loss_history) with the loss after each iteration.
    Raises TrainingDivergedError once an evaluation's loss or gradient is
    not finite.
    """
    if max_iter < 1:
        raise DomainError(f"need max_iter >= 1, got {max_iter}")
    family, _, (centers, log_steep, rbf_mask) = _shaped_start(
        "varpro", dataset, family, n_members, seed)
    history = []

    def on_iteration(theta):
        history.append(objective.evaluate(theta)["loss"])

    try:
        theta0 = np.concatenate([centers.T.ravel(), log_steep.T.ravel()])
        objective = _VarproObjective(dataset, family, rbf_mask, theta0, ridge)
        n = centers.size
        bounds = [(None, None)] * n + [(-VARPRO_LOG_STEEPNESS_BOUND,
                                        VARPRO_LOG_STEEPNESS_BOUND)] * n
        result = minimize(objective, theta0, jac=True, method="L-BFGS-B", bounds=bounds,
                          callback=on_iteration,
                          options={"maxiter": max_iter, "ftol": VARPRO_FTOL})
        e = objective.evaluate(result.x)
    except TrainingDivergedError as exc:
        raise TrainingDivergedError(f"{exc} after iteration {len(history)}",
                                    last_finite_epoch=len(history) - 1) from None
    d = Dictionary.from_packed(family, e["c"].T, e["a"].T, rbf_mask)
    return KoopmanModel(d, e["k"], dataset.mode, dataset.dt), history


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

    @staticmethod
    def for_data(inputs, points_per_dim=9, steepness_levels=(1.0, 3.0, 10.0),
                 kinds=(Kind.LOGISTIC, Kind.RBF)):
        """Default pool: per-dimension lattice spanning the data range."""
        if points_per_dim < 1:
            raise PoolError(f"points_per_dim must be >= 1, got {points_per_dim}")
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
