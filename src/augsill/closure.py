"""Steep-limit product approximations and finite-closure error measurements.

The lifted dynamics of a conjunctive dictionary stay inside the span of the
dictionary only approximately. This module quantifies that approximation:
pairwise products of members against their steep-limit targets, Lie-derivative
errors of whole dictionaries against staged linearizations, the closed-form
bounds those gaps obey in expectation, and the polynomial counterexample that
motivates bounded dictionaries in the first place. The limit of two logistics
keeps one member's own factor per dimension, so its target reuses those factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .dictionaries import (
    Dictionary,
    Family,
    Kind,
    _factors,
    limit_keeps_first,
    rbf_branch_survives,
    stable_logistic,
    stable_rbf,
)
from .errors import (
    DataError,
    DimensionMismatchError,
    HypothesisViolationError,
    ParameterDomainError,
    RateFitError,
    UnsupportedFamilyError,
)
from .solver import ridge_lstsq
from .systems import write_csv

# Below this floor a measured error is treated as underflow, not signal.
RATE_FLOOR = 1e-30
# Lie-derivative gaps need sample points this far from every center coordinate.
CLOSURE_GAP_MIN = 1e-3

DEFAULT_ALPHA_SCALES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


# -- pairwise product errors ----------------------------------------------------


def _pair_errors_batch(c, a, rbf, pts, alpha_scale):
    """|product - steep-limit target| at every row of pts for the packed
    (2, m) pair (c, a, rbf), a logistic row before an RBF row, so the kinds
    alone pick the target: the limit logistic of two logistics, the branch
    rule of a logistic and an RBF, zero for two RBFs.

    Callers must have verified the center-avoidance hypothesis already; this
    core assumes it and vectorizes freely. ``alpha_scale`` multiplies every
    steepness, so sweeping it traces the convergence toward the limit.
    """
    a = a * alpha_scale
    # One member per kernel call: batching the pair into one call is slower.
    f_l, f_o = (_factors(c[i:i + 1], a[i:i + 1], rbf[i:i + 1], pts)[0][..., 0] for i in (0, 1))
    v_l, v_o = np.multiply.reduce(f_l, axis=0), np.multiply.reduce(f_o, axis=0)
    if not rbf[1]:
        take = limit_keeps_first(c[0], a[0], c[1], a[1])
        target = np.multiply.reduce(np.where(take[:, None], f_l, f_o), axis=0)
    elif not rbf[0] and rbf_branch_survives(c[0], c[1]):
        target = v_o
    else:
        target = 0.0
    return np.abs(v_l * v_o - target)


class RateFit(NamedTuple):
    slope: float
    r_squared: float


def convergence_rate(alphas, errors) -> RateFit:
    """Least-squares slope of ln(error) against alpha, with its r-squared.

    Errors are floored at RATE_FLOOR before the log. A constant sweep has no
    variance to explain, so it reports slope 0 with r_squared 1.
    """
    x = np.asarray(alphas, dtype=float)
    e = np.asarray(errors, dtype=float)
    if x.ndim != 1 or e.shape != x.shape:
        raise DimensionMismatchError("alphas and errors must be matching 1-d sequences")
    if x.size < 5:
        raise DataError(f"need >= 5 sweep points, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ParameterDomainError("alphas must be finite")
    floored = np.maximum(e, RATE_FLOOR)
    if not np.all(np.isfinite(floored)) or np.any(floored <= 0):
        raise RateFitError("errors contain nonpositive or non-finite values")
    ln_e = np.log(floored)
    design = np.column_stack([np.ones_like(x), x])
    coef, _ = ridge_lstsq(design, ln_e, 0.0)
    resid = ln_e - design @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ln_e - ln_e.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(coef[1]), float(r2))


# -- theorem sweep suite ---------------------------------------------------------

THEOREM_NAMES = ("loglog", "logrbf_overlap", "logrbf_disjoint", "rbfrbf")


@dataclass(frozen=True)
class TheoremConfig:
    """One member pair of a limit statement, packed as _pair_errors_batch
    takes it: read-only (2, m) ``centers`` and ``steepness`` and a (2,)
    ``is_rbf`` mask, logistic row first (both rows RBF in rbfrbf)."""

    theorem: str
    m: int
    config_id: int
    centers: np.ndarray
    steepness: np.ndarray
    is_rbf: np.ndarray


@dataclass(frozen=True)
class ClosureReport:
    """One configuration's alpha sweep with its fitted decay rate."""

    theorem: str
    m: int
    config_id: int
    alpha_scales: tuple
    sup_errors: tuple
    mean_errors: tuple
    bounds: tuple
    slope: float
    r_squared: float
    n_points: int


def sample_theorem_config(theorem, config_id, seed=0, gap=0.2) -> TheoremConfig:
    """Random member pair satisfying one limit statement's hypotheses.

    Centers are separated by at least ``gap`` per dimension in the pattern the
    statement requires; steepnesses are drawn near 1 so the alpha sweep starts
    in the pre-asymptotic regime. The dimension cycles through 1..3 with
    config_id.
    """
    if theorem not in THEOREM_NAMES:
        raise ParameterDomainError(f"unknown theorem sweep {theorem!r}")
    if not (math.isfinite(gap) and gap > 0):
        raise ParameterDomainError(f"gap must be finite and > 0, got {gap}")
    t_idx = THEOREM_NAMES.index(theorem)
    m = config_id % 3 + 1
    rng = np.random.default_rng((seed, t_idx, config_id))
    mu_l = rng.uniform(-1.5, 1.5, size=m)
    sep = gap + rng.uniform(0.0, 1.0, size=m)
    if theorem == "loglog":
        mu_o = mu_l + sep
    elif theorem == "logrbf_overlap":
        # RBF center above the logistic center in dimension 0, below elsewhere.
        mu_o = mu_l - sep
        mu_o[0] = mu_l[0] + sep[0]
    elif theorem == "logrbf_disjoint":
        mu_o = mu_l - sep
    else:
        mu_o = mu_l + rng.choice((-1.0, 1.0), size=m) * sep
    a_l = rng.uniform(0.8, 1.25, size=m)
    a_o = rng.uniform(0.8, 1.25, size=m)
    # Row 0 is an RBF only in rbfrbf; row 1 is logistic only in loglog.
    pair = (np.array([mu_l, mu_o]), np.array([a_l, a_o]),
            np.array([theorem == "rbfrbf", theorem != "loglog"]))
    for x in pair:
        x.setflags(write=False)
    return TheoremConfig(theorem, m, config_id, *pair)


@functools.lru_cache(maxsize=8)
def _halton_points(m, n_points):
    """Unscrambled Halton points on the box [-2.5, 2.5]^m; cached, so read-only.

    Dimension j is the radical inverse of 0..n_points-1 in the j-th prime base,
    summed digit by digit in scipy's order and laid out dimension-major as it is.
    """
    bases, k = [], 2
    while len(bases) < m:
        if all(k % p for p in bases):
            bases.append(k)
        k += 1
    cols = np.zeros((m, n_points))
    for col, base in zip(cols, bases):
        q, b2r = np.arange(n_points), 1.0 / base
        while q.any():
            col += (q % base) * b2r  # a finished row adds 0.0: its bits stay
            b2r /= base
            q //= base
    pts = -2.5 + 5.0 * cols.T
    pts.setflags(write=False)
    return pts


def _filter_near_centers(pts, centers_list, gap):
    keep = np.ones(pts.shape[0], dtype=bool)
    for c in centers_list:
        keep &= np.all(np.abs(pts - c[None, :]) >= gap, axis=1)
    return pts[keep]


def sweep_config(cfg: TheoremConfig, alpha_scales=DEFAULT_ALPHA_SCALES,
                 n_points=10_000, gap=0.2) -> ClosureReport:
    """Alpha sweep of one configuration over a low-discrepancy point set.

    Points come from an unscrambled Halton sequence on the data box with a
    per-dimension guard band of ``gap`` around both centers, so the whole
    report is bitwise reproducible; an in-module generator gives the bits of
    scipy's ``qmc.Halton``, so no command imports ``scipy.stats``. The bound
    column is the hypothesis-gap envelope 2 m exp(-scale * a_min * gap): every
    per-dimension factor of the product is within exp(-a_min * scale * gap) of
    its limit on the filtered set, and at most 2 m factors differ.
    """
    if n_points < 0:
        raise ParameterDomainError(f"n_points must be >= 0, got {n_points}")
    if not (math.isfinite(gap) and gap > 0):
        raise ParameterDomainError(f"gap must be finite and > 0, got {gap}")
    scales = np.asarray(alpha_scales, dtype=float)
    if not np.all(np.isfinite(scales) & (scales > 0)):
        raise ParameterDomainError(f"alpha scales must be finite and > 0, got {alpha_scales}")
    c, a, rbf = cfg.centers, cfg.steepness, cfg.is_rbf
    pts = _filter_near_centers(_halton_points(cfg.m, n_points), c, gap)
    if pts.shape[0] < 100:
        raise DataError("center guard bands left too few sample points")
    a_min = float(a.min())
    sups, means, bounds = [], [], []
    for s in alpha_scales:
        errs = _pair_errors_batch(c, a, rbf, pts, s)
        sups.append(float(errs.max()))
        means.append(float(errs.mean()))
        bounds.append(2.0 * cfg.m * math.exp(-s * a_min * gap))
    sup_arr = np.asarray(sups)
    live = sup_arr > RATE_FLOOR
    # Underflowed sweep points carry no rate information; drop them, keeping
    # at least the first five scales so the fit stays well-posed.
    if live.sum() >= 5:
        fit = convergence_rate(scales[live], sup_arr[live])
    else:
        fit = convergence_rate(scales[:5], sup_arr[:5])
    return ClosureReport(
        theorem=cfg.theorem,
        m=cfg.m,
        config_id=cfg.config_id,
        alpha_scales=tuple(float(s) for s in alpha_scales),
        sup_errors=tuple(sups),
        mean_errors=tuple(means),
        bounds=tuple(bounds),
        slope=fit.slope,
        r_squared=fit.r_squared,
        n_points=int(pts.shape[0]),
    )


def theorem_suite(theorems=THEOREM_NAMES, n_configs=50, alpha_scales=DEFAULT_ALPHA_SCALES,
                  seed=0, n_points=10_000, gap=0.2):
    """Sweep every requested limit statement over random valid configurations."""
    if n_configs < 1:
        raise ParameterDomainError(f"n_configs must be >= 1, got {n_configs}")
    reports = []
    for theorem in theorems:
        for config_id in range(n_configs):
            cfg = sample_theorem_config(theorem, config_id, seed=seed, gap=gap)
            reports.append(sweep_config(cfg, alpha_scales, n_points, gap))
    return reports


def write_closure_csv(reports, path):
    write_csv(
        path,
        ["theorem", "m", "alpha_scale", "sup_error", "mean_error", "bound"],
        [
            [r.theorem, r.m, *row]
            for r in reports
            for row in zip(r.alpha_scales, r.sup_errors, r.mean_errors, r.bounds)
        ],
    )


def write_rate_csv(reports, path):
    write_csv(
        path,
        ["theorem", "config_id", "slope", "r_squared"],
        [[r.theorem, r.config_id, r.slope, r.r_squared] for r in reports],
    )


# -- Lie-derivative closure errors ----------------------------------------------


@dataclass(frozen=True)
class MemberClosureStats:
    """Gaps between a member's exact Lie derivative and staged surrogates.

    Stage (a) is the exact derivative, (b) replaces every pairwise product by
    its steep-limit target, (c) drops the leftover logistic weights from (b)
    so the result is linear in the lifted coordinates, and (products) is the
    other linear route that keeps raw member products instead.
    """

    index: int
    kind: Kind
    sup_exact_vs_limit: float
    mean_exact_vs_limit: float
    sup_limit_vs_linear: float
    mean_limit_vs_linear: float
    sup_exact_vs_linear: float
    mean_exact_vs_linear: float
    sup_exact_vs_products: float
    mean_exact_vs_products: float


def lie_closure_error(d: Dictionary, weights, sample_points):
    """Per-member closure gaps for a synthetic field spanned by the dictionary.

    The field is F_i(y) = sum_q weights[i, q] * member_q(y), so its exact Lie
    action on each member is expressible through the member's own gradient.
    Returns one MemberClosureStats per member, in dictionary order.
    """
    if d.family not in (Family.SILL, Family.AUGSILL):
        raise UnsupportedFamilyError(
            "closure staging needs conjunctive members (sill or augsill)"
        )
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != d.m:
        raise DimensionMismatchError(f"sample points must have shape (r, {d.m})")
    if len(pts) == 0:
        raise DataError("the sample set is empty: closure gaps need at least one point")
    if not np.all(np.isfinite(pts)):
        raise ParameterDomainError("sample points must be finite")
    n = d.n_members
    w = np.asarray(weights, dtype=float)
    if w.shape != (d.m, n):
        raise DimensionMismatchError(f"weights must have shape ({d.m}, {n}), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ParameterDomainError("weights must be finite")
    c, a, rbf = d.centers, d.steepness, d.is_rbf
    gaps = np.abs(pts[:, None, :] - c[None, :, :])
    if n and gaps.min() < CLOSURE_GAP_MIN:
        raise HypothesisViolationError(
            f"sample points must avoid every center coordinate by {CLOSURE_GAP_MIN}"
        )

    n_log = d.n_logistic
    # Factors and wts are (m, r, n); wts is 1 - lam (logistic) or 1 - 2 lam (RBF).
    factors, wts = _factors(c, a, rbf, pts, weights=True)
    vals = np.multiply.reduce(factors, axis=0)
    field = vals @ w.T  # (r, m)

    # Exact Lie derivative: gradient of each member contracted with the field.
    exact = np.einsum("nm,mrn,rm->rn", a, wts * vals, field)

    # Products route: same contraction with the member value pulled outside.
    products = vals * np.einsum("rm,nm->rn", field, a)

    # The limit target of each product of member p and field member q is
    # own[r, p] * targets[r, p, q]. A logistic row owns 1 and holds the limit
    # logistic of each logistic pair (per dimension the factor of p or of q
    # that the limit keeps) and the RBF gated by the branch matrix. An RBF row
    # owns the RBF itself, which is what survives its products with logistics,
    # and holds that gate transposed; RBF-RBF products vanish.
    c_log, a_log, f_log = c[:n_log], a[:n_log], factors[..., :n_log]
    take = limit_keeps_first(c_log[:, None], a_log[:, None], c_log[None], a_log[None])
    targets = np.zeros((len(pts), n, n))
    targets[:, :n_log, :n_log] = np.multiply.reduce(
        np.where(np.moveaxis(take, -1, 0)[:, None], f_log[..., None], f_log[..., None, :]), axis=0)
    branch = rbf_branch_survives(c_log[:, None], c[None, n_log:])  # (n_log, n_rbf)
    targets[:, :n_log, n_log:] = vals[:, None, n_log:] * branch
    targets[:, n_log:, :n_log] = branch.T
    own = np.where(rbf, vals, 1.0)

    # Stage (b) keeps each member's weights (1 - lam or 1 - 2 lam) on its
    # targets; stage (c) drops them.
    coef_b = np.einsum("pi,irp,iq->rpq", a, wts, w)
    stage_b = own * np.einsum("rpq,rpq->rp", coef_b, targets)
    stage_c = own * np.einsum("pq,rpq->rp", np.einsum("pi,iq->pq", a, w), targets)

    # |gap| per (member, stage pair, point), points last so that each mean is
    # numpy's pairwise sum over one contiguous row.
    err = np.abs(np.stack([exact - stage_b, stage_b - stage_c,
                           exact - stage_c, exact - products]))
    err = np.ascontiguousarray(err.transpose(2, 0, 1))
    table = np.stack([err.max(axis=2), err.mean(axis=2)], axis=2)  # (n, 4, 2)
    return [MemberClosureStats(q, Kind.RBF if rbf[q] else Kind.LOGISTIC,
                               *table[q].ravel().tolist())
            for q in range(n)]


# -- closed-form expectation bounds ----------------------------------------------


class BoundRow(str, Enum):
    """The four error-decomposition rows with closed-form expectation bounds."""

    LOGISTIC_LIMIT = "logistic_limit"
    LOGISTIC_PRODUCTS = "logistic_products"
    RBF_LIMIT = "rbf_limit"
    RBF_PRODUCTS = "rbf_products"


@dataclass(frozen=True)
class ErrorBoundParams:
    m: int
    n_logistic: int
    n_rbf: int
    nu: np.ndarray  # (m, n_logistic + n_rbf) nonnegative scale constants

    def __post_init__(self):
        if self.m < 1 or self.n_logistic < 0 or self.n_rbf < 0:
            raise ParameterDomainError("m must be >= 1 and member counts >= 0")
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "nu", nu)
        if nu.shape != (self.m, self.n_logistic + self.n_rbf):
            raise DimensionMismatchError(
                f"nu must have shape ({self.m}, {self.n_logistic + self.n_rbf}), "
                f"got {nu.shape}"
            )
        if not np.all(np.isfinite(nu)) or np.any(nu < 0):
            raise ParameterDomainError("nu entries must be finite and nonnegative")


def error_bound(params: ErrorBoundParams, row) -> float:
    """Closed-form expectation bound for one decomposition row.

    Each summation term is damped by a power of two per measurement dimension:
    one logistic factor contributes 2^-1 in expectation, a limit-branch RBF
    target 2^-2m, and the surviving branch itself 2^-m.
    """
    row = BoundRow(row)
    m = params.m
    nu_l = float(params.nu[:, : params.n_logistic].sum())
    nu_r = float(params.nu[:, params.n_logistic :].sum())
    if row == BoundRow.LOGISTIC_LIMIT:
        return nu_l / 2 ** (m + 1) + nu_r / 2 ** (3 * m + 1)
    if row == BoundRow.LOGISTIC_PRODUCTS:
        return nu_l / 2 ** (2 * m + 1) + nu_r / 2 ** (3 * m + 1)
    if row == BoundRow.RBF_LIMIT:
        return nu_l / 2 ** (3 * m + 1)
    return nu_l / 2 ** (3 * m + 1) + nu_r / 2 ** (4 * m + 1)


# -- polynomial blow-up demonstration ---------------------------------------------


@dataclass(frozen=True)
class ExplosionRow:
    y: float
    residual_at_y: float
    residual_sup: float


def polynomial_explosion_demo(degree, y_values) -> list:
    """Residual of the out-of-span image term for quadratic growth dynamics.

    For the scalar field f(y) = y^2 and the monomial dictionary
    {1, y, ..., y^degree}, the image of the top member is
    degree * y^(degree + 1), one degree beyond the span. Each requested y gets
    its own least-squares fit on [1, y], so the row reports how the
    irreducible residual scales with the domain size. A degree and y whose
    design, target or residual overflows raise ParameterDomainError.
    """
    if not isinstance(degree, (int, np.integer)) or degree < 1:
        raise ParameterDomainError(f"degree must be an integer >= 1: {degree}")
    ys = [float(v) for v in y_values]
    if not ys or any(not math.isfinite(v) or v <= 1.0 for v in ys):
        raise ParameterDomainError("y_values must all be finite and > 1")
    rows = []
    for y_max in ys:
        grid = np.linspace(1.0, y_max, 1024)
        # Powers past the float range are a bad (degree, y), refused before
        # LAPACK sees an inf and without numpy's overflow warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            design = np.vander(grid, degree + 1, increasing=True)
            target = degree * grid ** (degree + 1)
            finite = np.isfinite(design).all() and np.isfinite(target).all()
            if finite:
                coef, _ = ridge_lstsq(design, target, 0.0)
                resid = target - design @ coef
                finite = np.isfinite(resid).all()
        if not finite:
            raise ParameterDomainError(
                f"degree {degree} overflows the float range at y = {y_max:g}; "
                "lower the degree or y")
        rows.append(ExplosionRow(y_max, float(abs(resid[-1])), float(np.abs(resid).max())))
    return rows


def explosion_growth(rows: Sequence[ExplosionRow]) -> RateFit:
    """Log-log growth exponent of the sup residual against the domain size."""
    y = np.log([r.y for r in rows])
    e = [r.residual_sup for r in rows]
    return convergence_rate(y, e)


# -- Monte-Carlo expectation checks ------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    m: int
    n_samples: int
    seed: int
    a: float
    mean_logistic_product: float
    mean_rbf_product: float
    mean_limit_product: float
    bound_logistic: float
    bound_rbf: float
    bound_limit: float

    @property
    def all_within(self) -> bool:
        return (
            self.mean_logistic_product < self.bound_logistic
            and self.mean_rbf_product < self.bound_rbf
            and self.mean_limit_product < self.bound_limit
        )


def expectation_bound_check(m, n_samples=100_000, seed=2, a=2.0) -> BoundCheck:
    """Monte-Carlo means of the conjunctive products under uniform draws.

    Measurements, centers, and steepnesses are all drawn uniformly on [-a, a].
    The limit product keeps the RBF only when its center sits at or below the
    logistic's in every dimension, the measure-2^-m event that the damping
    argument counts; the means are compared against 2^-m, 2^-2m, and 2^-3m.
    """
    if m < 1:
        raise ParameterDomainError(f"m must be >= 1: {m}")
    if n_samples < 1:
        raise ParameterDomainError("n_samples must be >= 1")
    if not np.isfinite(a) or a <= 0:
        raise ParameterDomainError(f"a must be finite and > 0: {a}")
    rng = np.random.default_rng(seed)
    y = rng.uniform(-a, a, size=(n_samples, m))
    mu_l = rng.uniform(-a, a, size=(n_samples, m))
    al_l = rng.uniform(-a, a, size=(n_samples, m))
    mu_k = rng.uniform(-a, a, size=(n_samples, m))
    al_k = rng.uniform(-a, a, size=(n_samples, m))
    lam = stable_logistic(al_l * (y - mu_l))
    big_l = lam.prod(axis=1)
    big_p = stable_rbf(al_k * (y - mu_k)).prod(axis=1)
    survives = np.all(mu_k <= mu_l, axis=1)
    big_h = np.where(survives, big_p, 0.0)
    return BoundCheck(
        m=m,
        n_samples=n_samples,
        seed=seed,
        a=a,
        mean_logistic_product=float(big_l.mean()),
        mean_rbf_product=float(big_p.mean()),
        mean_limit_product=float(big_h.mean()),
        bound_logistic=0.5 ** m,
        bound_rbf=0.25 ** m,
        bound_limit=0.125 ** m,
    )
