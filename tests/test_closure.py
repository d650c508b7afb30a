import math
import tracemalloc

import numpy as np
import pytest

from augsill.closure import (
    BoundCheck,
    BoundRow,
    ErrorBoundParams,
    THEOREM_NAMES,
    _halton_points,
    convergence_rate,
    error_bound,
    expectation_bound_check,
    explosion_growth,
    _pair_errors_batch,
    lie_closure_error,
    polynomial_explosion_demo,
    sample_theorem_config,
    sweep_config,
    theorem_suite,
    write_closure_csv,
    write_rate_csv,
)
from augsill.dictionaries import (
    Dictionary,
    Family,
    Kind,
    _factors,
    limit_logistic_packed,
    member_values_packed,
    rbf_branch_survives,
    stable_logistic,
    stable_rbf,
)
from augsill.errors import (
    DataError,
    DomainError,
    HypothesisViolationError,
    ParameterDomainError,
    RateFitError,
    UnsupportedFamilyError,
)
from augsill.expectation import MC_CHUNK

LOG, RBF = False, True


def pair_error(y, first, second, alpha_scale=1.0):
    """_pair_errors_batch at the one point y for the pair of (is_rbf,
    centers, steepness) members, packed in the order given."""
    rbf, c, a = zip(first, second)
    return float(_pair_errors_batch(np.array(c, dtype=float), np.array(a, dtype=float),
                                    np.array(rbf), np.array([y], dtype=float), alpha_scale)[0])


def value(member, y, scale=1.0):
    """One (is_rbf, centers, steepness) member at the point y, its
    steepness multiplied by scale."""
    rbf, c, a = member
    return float(member_values_packed(Family.AUGSILL, np.array([c], dtype=float),
                                      np.array([a], dtype=float) * scale, np.array([rbf]),
                                      np.array([y], dtype=float))[0, 0])


# -- pairwise product limits ---------------------------------------------------


def test_loglog_error_vanishes_at_high_steepness():
    fl = (LOG, [0.0], [1.0])
    fj = (LOG, [1.0], [1.0])
    err = pair_error([2.0], fl, fj, alpha_scale=100.0)
    assert err < 1e-8


def test_rbfrbf_error_vanishes():
    fl = (RBF, [0.0, 0.0], [1.0, 1.0])
    fk = (RBF, [1.0, 1.0], [1.0, 1.0])
    err = pair_error([0.5, 0.5], fl, fk,
                     alpha_scale=50.0)
    assert err < 1e-4


def test_logrbf_disjoint_branch_is_plain_product():
    # rbf center strictly below the logistic center in every dimension: the
    # limit target is zero, so the reported gap is the raw product
    fl = (LOG, [1.0, 1.0], [1.2, 0.9])
    fk = (RBF, [0.0, 0.0], [1.0, 1.1])
    for scale in (1.0, 3.0, 10.0):
        y = np.array([0.4, -0.3])
        got = pair_error(y, fl, fk, alpha_scale=scale)
        want = value(fl, y, scale) * value(fk, y, scale)
        assert got == pytest.approx(want, rel=1e-14)


def test_logrbf_overlap_branch_converges():
    fl = (LOG, [0.0, 0.5], [1.0, 1.0])
    fk = (RBF, [1.0, -0.5], [1.0, 1.0])  # above in dim 0
    err = pair_error([2.0, 1.5], fl, fk,
                     alpha_scale=100.0)
    assert err < 1e-6


def test_product_error_decreases_along_sweep():
    fl = (LOG, [0.0], [1.0])
    fj = (LOG, [0.7], [1.0])
    y = np.array([1.4])
    errs = [pair_error(y, fl, fj, alpha_scale=s)
            for s in (5.0, 10.0, 20.0, 50.0, 100.0)]
    assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_product_error_takes_the_members_in_either_order():
    # Two members of one kind may come in either row order: the product
    # commutes, and so does the target (the limit logistic, or zero), which
    # leaves every bit of the gap alone.
    y = np.array([2.0, 1.5])
    for kind in (LOG, RBF):
        fl = (kind, [0.0, 0.5], [1.0, 1.2])
        for fk in ((kind, [1.0, -0.5], [1.0, 0.9]), (kind, [-1.0, -0.5], [1.0, 0.9])):
            for scale in (1.0, 10.0):
                want = pair_error(y, fl, fk, alpha_scale=scale)
                got = pair_error(y, fk, fl, alpha_scale=scale)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (fk, scale)


def test_product_error_limit_choice_at_ties():
    # A center tie with different steepnesses keeps the steeper factor, and a
    # dimension where both members share (c, a) keeps either one: the gap is
    # the product against the limit member evaluated on its own, bit for bit,
    # with the members in either order.
    fl = (LOG, [0.0, 0.5], [1.0, 1.2])
    y = np.array([0.8, 1.6])
    for fj in ((LOG, [0.0, 1.0], [2.0, 0.9]),    # tie in c, steeper fj
               (LOG, [0.0, -0.3], [1.0, 0.7])):  # identical (c, a)
        for first, second in ((fl, fj), (fj, fl)):
            for scale in (1.0, 2.0, 10.0, 100.0):
                (_, c_l, a_l), (_, c_o, a_o) = first, second
                a_l, a_o = np.array(a_l) * scale, np.array(a_o) * scale
                star = (LOG, *limit_logistic_packed(np.array(c_l), a_l, np.array(c_o), a_o))
                want = abs(value((LOG, c_l, a_l), y) * value((LOG, c_o, a_o), y)
                           - value(star, y))
                got = pair_error(y, first, second, alpha_scale=scale)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (fj, scale)


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
    fl = (LOG, [0.0], [1.0])
    fj = (LOG, [1.0], [1.0])
    y = np.array([2.0])
    # past scale ~16 the gap underflows to exactly zero, so fit below that
    alphas = np.arange(1.0, 15.0)
    errs = [pair_error(y, fl, fj, alpha_scale=s) for s in alphas]
    fit = convergence_rate(alphas, errs)
    assert fit.slope < -0.5
    assert fit.r_squared > 0.99


# -- seeded theorem sweeps -----------------------------------------------------------


def test_sample_config_geometry():
    for theorem in THEOREM_NAMES:
        for cid in range(6):
            cfg = sample_theorem_config(theorem, cid, seed=0, gap=0.2)
            assert cfg.m == cid % 3 + 1
            assert cfg.centers.shape == cfg.steepness.shape == (2, cfg.m)
            for x in (cfg.centers, cfg.steepness, cfg.is_rbf):
                assert not x.flags.writeable
            dl = cfg.centers[1] - cfg.centers[0]
            # The mask order _pair_errors_batch needs: a logistic row first.
            if theorem == "loglog":
                assert cfg.is_rbf.tolist() == [False, False]
                assert np.all(dl >= 0.2)
            elif theorem == "logrbf_overlap":
                assert cfg.is_rbf.tolist() == [False, True]
                assert dl[0] >= 0.2
                assert np.all(dl[1:] <= -0.2)
            elif theorem == "logrbf_disjoint":
                assert cfg.is_rbf.tolist() == [False, True]
                assert np.all(dl <= -0.2)
            else:
                assert cfg.is_rbf.tolist() == [True, True]
                assert np.all(np.abs(dl) >= 0.2)


def test_sample_config_deterministic():
    a = sample_theorem_config("loglog", 3, seed=9)
    b = sample_theorem_config("loglog", 3, seed=9)
    for field in ("centers", "steepness", "is_rbf"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert (a.theorem, a.m, a.config_id) == (b.theorem, b.m, b.config_id)
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


def test_halton_points_match_scipy_bitwise():
    # scipy's sampler is the reference here only; the package never imports it.
    from scipy.stats import qmc

    for d in range(1, 9):
        for n in (1, 2, 7, 10_000):
            ref = -2.5 + 5.0 * qmc.Halton(d=d, scramble=False).random(n)
            pts = _halton_points(d, n)
            assert pts.shape == ref.shape == (n, d)
            assert pts.tobytes() == ref.tobytes(), (d, n)
            assert pts.flags.f_contiguous and not pts.flags.writeable, (d, n)


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
    d = Dictionary.from_packed(Family.SILL, [[0.0, 0.0]], [[1.0, 1.0]], [False])
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
    d = Dictionary.from_packed(Family.SILL, [[0.3]], [[alpha]], [False])
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
    centers = rng.uniform(-1, 1, (3, 2))
    d = Dictionary.from_packed(Family.AUGSILL, centers, [[1.0, 1.0], [1.1, 1.1], [0.9, 0.9]],
                               [False, False, True])
    w = rng.normal(0, 1, (2, 3))
    pts = rng.uniform(-2, 2, (800, 2))
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
        bad = np.vstack([pts, d.centers[:1]])
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
    d = Dictionary.from_packed(Family.SILL, [[1.8, 1.8], [0.0, 0.0]], np.ones((2, 2)),
                               [False, False])
    keep = np.all(np.abs(pts[:, None, :] - d.centers[None]) > 1e-2, axis=(1, 2))
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    stats = lie_closure_error(d, w, pts[keep])[1]
    nu = np.abs(d.steepness[1][:, None] * w)
    params = ErrorBoundParams(2, 2, 0, nu)
    assert stats.mean_limit_vs_linear < error_bound(params, BoundRow.LOGISTIC_LIMIT)
    assert stats.mean_exact_vs_products < error_bound(
        params, BoundRow.LOGISTIC_PRODUCTS
    )


def test_bounds_dominate_monte_carlo_rbf_rows():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, (20000, 2))
    d = Dictionary.from_packed(Family.AUGSILL, [[-1.0, -1.0], [0.0, 0.0]],
                               [[1.0, 1.0], [4.0, 4.0]], [False, True])
    keep = np.all(np.abs(pts[:, None, :] - d.centers[None]) > 1e-2, axis=(1, 2))
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    stats = lie_closure_error(d, w, pts[keep])[1]
    nu = np.abs(d.steepness[1][:, None] * w)
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


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_expectation_bound_check_streams_the_one_shot_draws(m, seed):
    # The chunks hold the rows of the five whole arrays that one
    # default_rng(seed) draws in sequence, so every mean is bitwise the one of
    # the one-shot draw, rebuilt here; a stream started at the wrong offset
    # draws other samples.
    for n in (1, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 100_000):
        rng = np.random.default_rng(seed)
        y, mu_l, al_l, mu_k, al_k = (rng.uniform(-2.0, 2.0, size=(n, m)) for _ in range(5))
        big_p = stable_rbf(al_k * (y - mu_k)).prod(axis=1)
        want = (stable_logistic(al_l * (y - mu_l)).prod(axis=1).mean(), big_p.mean(),
                np.where(np.all(mu_k <= mu_l, axis=1), big_p, 0.0).mean())
        chk = expectation_bound_check(m, n, seed)
        got = (chk.mean_logistic_product, chk.mean_rbf_product, chk.mean_limit_product)
        assert got == tuple(map(float, want)), (n, got, want)


def test_expectation_bound_check_keeps_only_per_sample_products():
    # Drawn whole, the five (100,000, 3) arrays and their temporaries peaked
    # at 22.4 MB; streamed, the three per-sample products (2.4 MB) and one
    # chunk's draws stay (4.4 MB).
    expectation_bound_check(3, 1000)
    tracemalloc.start()
    try:
        expectation_bound_check(3, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


def test_expectation_bound_check_validation():
    with pytest.raises(ParameterDomainError):
        expectation_bound_check(0)
    with pytest.raises(ParameterDomainError):
        expectation_bound_check(1, a=-1.0)
