import math

import numpy as np
import pytest

from augsill.closure import (
    BoundCheck,
    BoundRow,
    ErrorBoundParams,
    PairKind,
    THEOREM_NAMES,
    convergence_rate,
    error_bound,
    expectation_bound_check,
    explosion_growth,
    lie_closure_error,
    polynomial_explosion_demo,
    product_error,
    sample_theorem_config,
    sweep_config,
    theorem_suite,
    write_closure_csv,
    write_rate_csv,
)
from augsill.dictionaries import (
    ConjunctiveFunction,
    Dictionary,
    Family,
    Kind,
    ScalarBasisParams,
    _factors,
    eval_conjunctive,
    limit_logistic_packed,
    member_values_packed,
    rbf_branch_survives,
    stable_logistic,
)
from augsill.errors import (
    DataError,
    DomainError,
    HypothesisViolationError,
    ParameterDomainError,
    RateFitError,
    UnsupportedFamilyError,
)


def conj(kind, centers, steeps):
    return ConjunctiveFunction(
        kind, tuple(ScalarBasisParams(c, s) for c, s in zip(centers, steeps))
    )


# -- pairwise product limits ---------------------------------------------------


def test_loglog_error_vanishes_at_high_steepness():
    fl = conj(Kind.LOGISTIC, [0.0], [1.0])
    fj = conj(Kind.LOGISTIC, [1.0], [1.0])
    err = product_error(PairKind.LOG_LOG, np.array([2.0]), fl, fj, alpha_scale=100.0)
    assert err < 1e-8


def test_rbfrbf_error_vanishes():
    fl = conj(Kind.RBF, [0.0, 0.0], [1.0, 1.0])
    fk = conj(Kind.RBF, [1.0, 1.0], [1.0, 1.0])
    err = product_error(PairKind.RBF_RBF, np.array([0.5, 0.5]), fl, fk,
                        alpha_scale=50.0)
    assert err < 1e-4


def test_logrbf_disjoint_branch_is_plain_product():
    # rbf center strictly below the logistic center in every dimension: the
    # limit target is zero, so the reported gap is the raw product
    fl = conj(Kind.LOGISTIC, [1.0, 1.0], [1.2, 0.9])
    fk = conj(Kind.RBF, [0.0, 0.0], [1.0, 1.1])
    for scale in (1.0, 3.0, 10.0):
        y = np.array([0.4, -0.3])
        got = product_error(PairKind.LOG_RBF, y, fl, fk, alpha_scale=scale)
        sl = fl if scale == 1.0 else conj(Kind.LOGISTIC, [1.0, 1.0],
                                          [1.2 * scale, 0.9 * scale])
        sk = fk if scale == 1.0 else conj(Kind.RBF, [0.0, 0.0],
                                          [1.0 * scale, 1.1 * scale])
        want = eval_conjunctive(sl, y) * eval_conjunctive(sk, y)
        assert got == pytest.approx(want, rel=1e-14)


def test_logrbf_overlap_branch_converges():
    fl = conj(Kind.LOGISTIC, [0.0, 0.5], [1.0, 1.0])
    fk = conj(Kind.RBF, [1.0, -0.5], [1.0, 1.0])  # above in dim 0
    err = product_error(PairKind.LOG_RBF, np.array([2.0, 1.5]), fl, fk,
                        alpha_scale=100.0)
    assert err < 1e-6


def test_product_error_decreases_along_sweep():
    fl = conj(Kind.LOGISTIC, [0.0], [1.0])
    fj = conj(Kind.LOGISTIC, [0.7], [1.0])
    y = np.array([1.4])
    errs = [product_error(PairKind.LOG_LOG, y, fl, fj, alpha_scale=s)
            for s in (5.0, 10.0, 20.0, 50.0, 100.0)]
    assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_product_error_rejects_center_hits():
    fl = conj(Kind.LOGISTIC, [0.0], [1.0])
    fj = conj(Kind.LOGISTIC, [1.0], [1.0])
    with pytest.raises(HypothesisViolationError):
        product_error(PairKind.LOG_LOG, np.array([1.0 + 1e-12]), fl, fj)


def test_product_error_validates_kinds_and_scale():
    fl = conj(Kind.LOGISTIC, [0.0], [1.0])
    fk = conj(Kind.RBF, [1.0], [1.0])
    with pytest.raises(ParameterDomainError):
        product_error(PairKind.LOG_LOG, np.array([2.0]), fl, fk)
    with pytest.raises(ParameterDomainError):
        product_error(PairKind.LOG_RBF, np.array([2.0]), fl, fk, alpha_scale=0.0)


# -- rate fitting -----------------------------------------------------------------


def test_rate_fit_exact_exponential():
    alphas = np.arange(1.0, 11.0)
    fit = convergence_rate(alphas, np.exp(-2.0 * alphas))
    assert abs(fit.slope + 2.0) < 1e-9
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_rate_fit_constant_errors():
    fit = convergence_rate(np.arange(1.0, 8.0), np.full(7, 0.3))
    assert abs(fit.slope) < 1e-12
    assert fit.r_squared == pytest.approx(1.0)


def test_rate_fit_needs_five_points():
    with pytest.raises(DataError):
        convergence_rate(np.arange(4.0), np.ones(4))


def test_rate_fit_rejects_non_finite_errors():
    with pytest.raises(RateFitError):
        convergence_rate(np.arange(1.0, 7.0), np.array([1, 1, np.nan, 1, 1, 1.0]))


def test_rate_fit_floor_handles_underflow():
    errs = np.array([1e-2, 1e-8, 1e-20, 0.0, 0.0])
    fit = convergence_rate(np.arange(1.0, 6.0), errs)
    assert np.isfinite(fit.slope) and fit.slope < 0


def test_theorem1_sweep_rate():
    fl = conj(Kind.LOGISTIC, [0.0], [1.0])
    fj = conj(Kind.LOGISTIC, [1.0], [1.0])
    y = np.array([2.0])
    # past scale ~16 the gap underflows to exactly zero, so fit below that
    alphas = np.arange(1.0, 15.0)
    errs = [product_error(PairKind.LOG_LOG, y, fl, fj, alpha_scale=s) for s in alphas]
    fit = convergence_rate(alphas, errs)
    assert fit.slope < -0.5
    assert fit.r_squared > 0.99


# -- seeded theorem sweeps -----------------------------------------------------------


def test_sample_config_geometry():
    for theorem in THEOREM_NAMES:
        for cid in range(6):
            cfg = sample_theorem_config(theorem, cid, seed=0, gap=0.2)
            assert cfg.m == cid % 3 + 1
            dl = cfg.theta_other.centers - cfg.theta_l.centers
            if theorem == "loglog":
                assert cfg.theta_l.kind == cfg.theta_other.kind == Kind.LOGISTIC
                assert np.all(dl >= 0.2)
            elif theorem == "logrbf_overlap":
                assert dl[0] >= 0.2
                assert np.all(dl[1:] <= -0.2)
            elif theorem == "logrbf_disjoint":
                assert np.all(dl <= -0.2)
            else:
                assert cfg.theta_l.kind == cfg.theta_other.kind == Kind.RBF
                assert np.all(np.abs(dl) >= 0.2)


def test_sample_config_deterministic():
    a = sample_theorem_config("loglog", 3, seed=9)
    b = sample_theorem_config("loglog", 3, seed=9)
    assert a.theta_l == b.theta_l
    assert a.theta_other == b.theta_other
    with pytest.raises(ParameterDomainError):
        sample_theorem_config("nosuch", 0)


def test_sweep_config_report():
    cfg = sample_theorem_config("loglog", 1, seed=0)
    rep = sweep_config(cfg, n_points=2000)
    assert rep.n_points >= 100
    assert len(rep.sup_errors) == len(rep.alpha_scales) == len(rep.bounds)
    # the hypothesis-gap envelope dominates the measured sup everywhere
    for sup, bound in zip(rep.sup_errors, rep.bounds):
        assert sup <= bound
    # monotone tail beyond scale 5
    tail = [s for a, s in zip(rep.alpha_scales, rep.sup_errors) if a >= 5.0]
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    assert rep.slope < 0


def test_sweep_rejects_negative_point_count():
    cfg = sample_theorem_config("loglog", 1, seed=0)
    for n in (-1, -10_000):
        with pytest.raises(DomainError):
            sweep_config(cfg, n_points=n)
        with pytest.raises(DomainError, match="n_points"):
            theorem_suite(theorems=("loglog",), n_configs=1, n_points=n)
    # Zero points is a valid request that the guard bands cannot serve.
    with pytest.raises(DataError):
        sweep_config(cfg, n_points=0)
    # No configurations, or centres and guard bands not separated by a gap > 0.
    for n in (0, -2):
        with pytest.raises(ParameterDomainError):
            theorem_suite(theorems=("loglog",), n_configs=n)
    for gap in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ParameterDomainError):
            sample_theorem_config("loglog", 1, seed=0, gap=gap)
        with pytest.raises(ParameterDomainError):
            sweep_config(cfg, n_points=500, gap=gap)
    # Steepness scales that are not finite and > 0.
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ParameterDomainError, match="alpha scales"):
            sweep_config(cfg, (bad, 1.0, 2.0, 5.0, 10.0), n_points=500)
        with pytest.raises(ParameterDomainError, match="alpha scales"):
            theorem_suite(theorems=("loglog",), n_configs=1, n_points=500,
                          alpha_scales=(1.0, 2.0, 5.0, 10.0, bad))


def test_small_suite_rates_and_tails():
    reports = theorem_suite(n_configs=4, n_points=2000, seed=0)
    assert len(reports) == 16
    for rep in reports:
        assert rep.slope < 0
        assert rep.r_squared > 0.95
        assert rep.sup_errors[-1] < 1e-3


def test_closure_csv_shapes(tmp_path):
    reports = theorem_suite(theorems=("loglog",), n_configs=2, n_points=1500)
    p1 = tmp_path / "closure.csv"
    p2 = tmp_path / "rates.csv"
    write_closure_csv(reports, p1)
    write_rate_csv(reports, p2)
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "theorem,m,alpha_scale,sup_error,mean_error,bound"
    assert len(lines) == 1 + 2 * len(reports[0].alpha_scales)
    rates = p2.read_text().strip().split("\n")
    assert rates[0] == "theorem,config_id,slope,r_squared"
    assert len(rates) == 3


# -- Lie-derivative stages ---------------------------------------------------------


def test_lie_closure_zero_weights():
    d = Dictionary.sill([conj(Kind.LOGISTIC, [0.0, 0.0], [1.0, 1.0])])
    stats = lie_closure_error(d, np.zeros((2, 1)), np.array([[1.0, 1.0]]))
    s = stats[0]
    assert s.sup_exact_vs_limit == 0.0
    assert s.sup_limit_vs_linear == 0.0
    assert s.sup_exact_vs_linear == 0.0
    assert s.sup_exact_vs_products == 0.0


def test_lie_closure_single_member_closed_forms():
    # one scalar logistic driving itself: every stage has a pencil-and-paper
    # value. lam below is the member's own activation at the sample point.
    alpha = 1.7
    d = Dictionary.sill([conj(Kind.LOGISTIC, [0.3], [alpha])])
    w = np.ones((1, 1))
    for y in (-0.9, 0.8, 2.1):
        lam = float(stable_logistic(alpha * (y - 0.3)))
        s = lie_closure_error(d, w, np.array([[y]]))[0]
        exact = alpha * (1 - lam) * lam**2
        limit = alpha * (1 - lam) * lam
        linear = alpha * lam
        products = alpha * lam**2
        assert s.sup_exact_vs_limit == pytest.approx(abs(exact - limit), rel=1e-12)
        assert s.sup_limit_vs_linear == pytest.approx(abs(limit - linear), rel=1e-12)
        assert s.sup_exact_vs_linear == pytest.approx(abs(exact - linear), rel=1e-12)
        assert s.sup_exact_vs_products == pytest.approx(abs(exact - products),
                                                        rel=1e-12)


def _augsill_fixture():
    """Seed-0 mixed dictionary with a random field and guarded sample set."""
    rng = np.random.default_rng(0)
    members = [
        conj(Kind.LOGISTIC, rng.uniform(-1, 1, 2), [1.0, 1.0]),
        conj(Kind.LOGISTIC, rng.uniform(-1, 1, 2), [1.1, 1.1]),
        conj(Kind.RBF, rng.uniform(-1, 1, 2), [0.9, 0.9]),
    ]
    d = Dictionary.augsill(members)
    w = rng.normal(0, 1, (2, 3))
    pts = rng.uniform(-2, 2, (800, 2))
    centers = np.array([f.centers for f in members])
    keep = np.all(np.abs(pts[:, None, :] - centers[None]) > 0.2, axis=(1, 2))
    return d, w, pts[keep]


def two_block_staging(d, w, pts):
    """Reference for lie_closure_error: its eight stats as an (n, 8) array,
    with the logistic and RBF members staged in two separate blocks."""
    c, a, rbf, n_log = d.centers, d.steepness, d.is_rbf, d.n_logistic
    factors, wts = _factors(c, a, rbf, pts, weights=True)
    vals = np.multiply.reduce(factors, axis=0)
    vals_rbf = vals[:, n_log:]
    field = vals @ w.T
    exact = np.einsum("nm,mrn,rm->rn", a, wts * vals, field)
    products = vals * np.einsum("rm,nm->rn", field, a)
    c_log, a_log = c[:n_log], a[:n_log]
    c_star, a_star = limit_logistic_packed(c_log[:, None], a_log[:, None],
                                           c_log[None], a_log[None])
    limit_star = member_values_packed(
        Family.SILL, c_star.reshape(-1, d.m), a_star.reshape(-1, d.m),
        np.zeros(n_log * n_log, dtype=bool), pts).reshape(len(pts), n_log, n_log)
    branch = rbf_branch_survives(c_log[:, None], c[None, n_log:])
    targets = np.concatenate([limit_star, vals_rbf[:, None, :] * branch[None]], axis=2)
    # Logistic block: the targets of each logistic member's products.
    coef_b_log = np.einsum("li,irl,iq->rlq", a_log, wts[..., :n_log], w)
    coef_c_log = np.einsum("li,iq->lq", a_log, w)
    stage_b_log = np.einsum("rlq,rlq->rl", coef_b_log, targets)
    stage_c_log = np.einsum("lq,rlq->rl", coef_c_log, targets)
    # RBF block: the RBF itself, gated by the transposed branch matrix.
    a_r = a[n_log:]
    coef_b_rbf = np.einsum("ki,irk,ij->rkj", a_r, wts[..., n_log:], w[:, :n_log])
    coef_c_rbf = np.einsum("ki,ij->kj", a_r, w[:, :n_log])
    stage_b_rbf = vals_rbf * (coef_b_rbf * branch.T[None]).sum(axis=2)
    stage_c_rbf = vals_rbf * (coef_c_rbf * branch.T).sum(axis=1)[None, :]
    stage_b = np.concatenate([stage_b_log, stage_b_rbf], axis=1)
    stage_c = np.concatenate([stage_c_log, stage_c_rbf], axis=1)
    out = []
    for q in range(d.n_members):
        for x, y in ((exact, stage_b), (stage_b, stage_c), (exact, stage_c),
                     (exact, products)):
            gap = np.abs(x[:, q] - y[:, q])
            out += [gap.max(), gap.mean()]
    return np.reshape(out, (d.n_members, 8))


def stats_array(stats):
    return np.array([[s.sup_exact_vs_limit, s.mean_exact_vs_limit,
                      s.sup_limit_vs_linear, s.mean_limit_vs_linear,
                      s.sup_exact_vs_linear, s.mean_exact_vs_linear,
                      s.sup_exact_vs_products, s.mean_exact_vs_products] for s in stats])


def test_lie_closure_matches_two_block_staging():
    d, w, pts = _augsill_fixture()
    cases = [(d.with_scaled_steepness(s), w, pts) for s in (1.0, 20.0, 100.0)]
    rng = np.random.default_rng(61)
    for k in range(24):
        family, m, n = (Family.SILL, Family.AUGSILL)[k % 2], k % 3 + 1, 1 + k % 7
        n_log = n if family == Family.SILL else int(rng.integers(0, n + 1))
        centers = rng.uniform(-1.5, 1.5, (n, m))
        steeps = rng.uniform(0.5, 3.0, (n, m)) * rng.choice([1.0, 10.0])
        pts = rng.uniform(-2.5, 2.5, (400, m))
        keep = np.all(np.abs(pts[:, None, :] - centers[None]) > 1e-2, axis=(1, 2))
        cases.append((Dictionary.from_packed(family, centers, steeps, np.arange(n) >= n_log),
                      rng.normal(0, 1, (m, n)), pts[keep]))
    for d, w, pts in cases:
        stats = lie_closure_error(d, w, pts)
        assert [s.kind == Kind.RBF for s in stats] == d.is_rbf.tolist()
        np.testing.assert_allclose(stats_array(stats), two_block_staging(d, w, pts),
                                   rtol=1e-12, atol=0)


def test_lie_closure_doubling_steepness_tightens_limit():
    d, w, pts = _augsill_fixture()
    base = max(s.sup_exact_vs_limit
               for s in lie_closure_error(d.with_scaled_steepness(20.0), w, pts))
    doubled = max(s.sup_exact_vs_limit
                  for s in lie_closure_error(d.with_scaled_steepness(40.0), w, pts))
    assert doubled < base


def test_lie_closure_limit_gap_vanishes_at_scale_100():
    d, w, pts = _augsill_fixture()
    stats = lie_closure_error(d.with_scaled_steepness(100.0), w, pts)
    assert max(s.sup_exact_vs_limit for s in stats) < 1e-3


def test_lie_closure_input_validation():
    d, w, pts = _augsill_fixture()
    with pytest.raises(HypothesisViolationError):
        bad = np.vstack([pts, d.members[0].centers[None, :]])
        lie_closure_error(d, w, bad)
    poly = Dictionary.legendre(2, 3)
    with pytest.raises(UnsupportedFamilyError):
        lie_closure_error(poly, np.zeros((2, 3)), pts)
    with pytest.raises(DataError, match="empty"):
        lie_closure_error(d, w, np.empty((0, d.m)))


# -- closed-form bounds ----------------------------------------------------------------


def test_error_bound_zero_nu():
    p = ErrorBoundParams(2, 1, 1, np.zeros((2, 2)))
    for row in BoundRow:
        assert error_bound(p, row) == 0.0


def test_error_bound_reference_value():
    p = ErrorBoundParams(2, 1, 0, np.ones((2, 1)))
    assert error_bound(p, BoundRow.LOGISTIC_LIMIT) == 0.25


def test_error_bound_m_scaling():
    # pure 2^-(m+1) row halves; pure 2^-(3m+1) row divides by 8
    for m in (1, 2, 3):
        a = error_bound(ErrorBoundParams(m, 1, 0, np.ones((m, 1))),
                        BoundRow.LOGISTIC_LIMIT)
        b = error_bound(ErrorBoundParams(m + 1, 1, 0, np.ones((m + 1, 1))),
                        BoundRow.LOGISTIC_LIMIT)
        # nu gains a row when m grows; rescale to a fixed total weight
        assert b / (m + 1) == pytest.approx((a / m) / 2.0)
        ra = error_bound(ErrorBoundParams(m, 0, 1, np.ones((m, 1))),
                         BoundRow.RBF_LIMIT)
        rb = error_bound(ErrorBoundParams(m + 1, 0, 1, np.ones((m + 1, 1))),
                         BoundRow.RBF_LIMIT)
        assert rb / (m + 1) == pytest.approx((ra / m) / 8.0)


def test_error_bound_validation():
    with pytest.raises(DomainError):
        ErrorBoundParams(2, 1, 1, -np.ones((2, 2)))
    with pytest.raises(DomainError):
        ErrorBoundParams(2, 2, 1, np.ones((2, 2)))


def test_bounds_dominate_monte_carlo_logistic_rows():
    # two conjunctive logistics; the field selects the far-corner member and
    # the stats of the centered member are compared against the bound rows
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, (20000, 2))
    A = conj(Kind.LOGISTIC, [1.8, 1.8], [1.0, 1.0])
    B = conj(Kind.LOGISTIC, [0.0, 0.0], [1.0, 1.0])
    d = Dictionary.sill([A, B])
    centers = np.array([A.centers, B.centers])
    keep = np.all(np.abs(pts[:, None, :] - centers[None]) > 1e-2, axis=(1, 2))
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    stats = lie_closure_error(d, w, pts[keep])[1]
    nu = np.abs(B.steepnesses[:, None] * w)
    params = ErrorBoundParams(2, 2, 0, nu)
    assert stats.mean_limit_vs_linear < error_bound(params, BoundRow.LOGISTIC_LIMIT)
    assert stats.mean_exact_vs_products < error_bound(
        params, BoundRow.LOGISTIC_PRODUCTS
    )


def test_bounds_dominate_monte_carlo_rbf_rows():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, (20000, 2))
    J = conj(Kind.LOGISTIC, [-1.0, -1.0], [1.0, 1.0])
    R = conj(Kind.RBF, [0.0, 0.0], [4.0, 4.0])
    d = Dictionary.augsill([J, R])
    centers = np.array([J.centers, R.centers])
    keep = np.all(np.abs(pts[:, None, :] - centers[None]) > 1e-2, axis=(1, 2))
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    stats = lie_closure_error(d, w, pts[keep])[1]
    nu = np.abs(R.steepnesses[:, None] * w)
    params = ErrorBoundParams(2, 1, 1, nu)
    assert stats.mean_limit_vs_linear < error_bound(params, BoundRow.RBF_LIMIT)
    assert stats.mean_exact_vs_products < error_bound(params, BoundRow.RBF_PRODUCTS)


# -- polynomial blow-up ------------------------------------------------------------------


def test_explosion_monotone_growth():
    rows = polynomial_explosion_demo(1, (2.0, 10.0))
    assert rows[1].residual_sup > rows[0].residual_sup
    assert rows[1].residual_at_y > rows[0].residual_at_y


def test_explosion_exponent_degree_one():
    rows = polynomial_explosion_demo(1, (32.0, 64.0, 128.0, 256.0, 512.0))
    fit = explosion_growth(rows)
    assert abs(fit.slope - 2.0) < 0.1


def test_explosion_validation():
    with pytest.raises(DomainError):
        polynomial_explosion_demo(0, (2.0, 4.0))
    with pytest.raises(DomainError):
        polynomial_explosion_demo(2, (0.5, 4.0))


# -- uniform-draw expectation bounds --------------------------------------------------------


def test_expectation_bound_check_passes_for_small_m():
    for m in (1, 2, 3):
        chk = expectation_bound_check(m)
        assert isinstance(chk, BoundCheck)
        assert chk.all_within
        assert chk.bound_logistic == 0.5**m
        assert chk.bound_rbf == 0.25**m
        assert chk.bound_limit == 0.125**m


def test_expectation_bound_check_frozen_means():
    chk = expectation_bound_check(2)
    assert chk.mean_logistic_product == pytest.approx(0.24903, abs=1e-4)
    assert chk.mean_rbf_product == pytest.approx(0.02961, abs=1e-4)
    assert chk.mean_limit_product == pytest.approx(0.007414, abs=1e-4)


def test_expectation_bound_check_validation():
    with pytest.raises(ParameterDomainError):
        expectation_bound_check(0)
    with pytest.raises(ParameterDomainError):
        expectation_bound_check(1, a=-1.0)
