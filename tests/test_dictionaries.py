import warnings

import numpy as np
import pytest

from augsill.dictionaries import (
    ConjunctiveFunction,
    _poly_1d,
    Dictionary,
    Family,
    Kind,
    ScalarBasisParams,
    conjunctive_members,
    dictionary_from_text,
    dictionary_to_text,
    eval_conjunctive,
    eval_scalar_basis,
    h_function,
    lift,
    lift_jacobian,
    lift_jacobian_many,
    lift_many,
    limit_logistic_packed,
    load_dictionary,
    member_sensitivities_packed,
    member_values_packed,
    param_gradients,
    param_gradients_many,
    polynomial_multi_indices,
    product_limit_logistic,
    rbf_branch_survives,
    save_dictionary,
    stable_logistic,
    stable_rbf,
)
from augsill.errors import (
    DimensionMismatchError,
    ParameterDomainError,
    UnsupportedFamilyError,
)


def conj(kind, centers, steeps):
    return ConjunctiveFunction(
        kind, tuple(ScalarBasisParams(c, s) for c, s in zip(centers, steeps))
    )


def random_dictionary(family, m, n, rng):
    """Seeded dictionary with centers in [-1.5, 1.5], steepness in [0.5, 3]."""
    centers = rng.uniform(-1.5, 1.5, (n, m))
    steeps = rng.uniform(0.5, 3.0, (n, m))
    if family == Family.SUMMED_RBF:
        members = [
            tuple(ScalarBasisParams(c, s) for c, s in zip(crow, srow))
            for crow, srow in zip(centers, steeps)
        ]
        return Dictionary.summed_rbf(members)
    if family in (Family.LEGENDRE, Family.HERMITE):
        return Dictionary(family, m, polynomial_multi_indices(m, n))
    n_log = (n + 1) // 2 if family == Family.AUGSILL else n
    members = [
        conj(Kind.LOGISTIC if j < n_log else Kind.RBF, centers[j], steeps[j])
        for j in range(n)
    ]
    return Dictionary(family, m, tuple(members))


# -- scalar bases ------------------------------------------------------------


def test_logistic_at_center_is_half():
    for alpha in (0.1, 1.0, 7.3, 120.0):
        p = ScalarBasisParams(0.4, alpha)
        assert eval_scalar_basis(Kind.LOGISTIC, 0.4, p) == 0.5


def test_rbf_at_center_is_quarter():
    for alpha in (0.1, 1.0, 7.3, 120.0):
        p = ScalarBasisParams(-1.2, alpha)
        assert eval_scalar_basis(Kind.RBF, -1.2, p) == 0.25


def test_logistic_known_value():
    # 1/(1+e^-2) evaluated independently to full precision
    p = ScalarBasisParams(0.0, 2.0)
    got = eval_scalar_basis(Kind.LOGISTIC, 1.0, p)
    assert abs(got - 0.8807970779778823) < 1e-15


def test_scalar_basis_overflow_safe():
    p = ScalarBasisParams(0.0, 1e6)
    assert eval_scalar_basis(Kind.LOGISTIC, 1.0, p) == 1.0
    assert eval_scalar_basis(Kind.LOGISTIC, -1.0, p) == 0.0
    assert eval_scalar_basis(Kind.RBF, 1.0, p) == 0.0
    lo = eval_scalar_basis(Kind.RBF, -1.0, p)
    assert lo == 0.0


def test_scalar_basis_rejects_bad_input():
    p = ScalarBasisParams(0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        eval_scalar_basis(Kind.LOGISTIC, float("nan"), p)
    with pytest.raises(ParameterDomainError):
        ScalarBasisParams(0.0, 0.0)
    with pytest.raises(ParameterDomainError):
        ScalarBasisParams(0.0, -2.0)
    with pytest.raises(ParameterDomainError):
        ScalarBasisParams(float("inf"), 1.0)
    # the array constructor rejects the same parameters
    with pytest.raises(ParameterDomainError):
        Dictionary.from_packed(Family.SILL, [[float("nan")]], [[1.0]], [False])
    with pytest.raises(ParameterDomainError):
        Dictionary.from_packed(Family.SILL, [[0.0]], [[0.0]], [False])


def test_rbf_identity_against_logistic():
    # rho = lam - lam^2 at 1000 random (t, theta) pairs
    rng = np.random.default_rng(11)
    for _ in range(1000):
        y = rng.uniform(-5, 5)
        c = rng.uniform(-2, 2)
        a = rng.uniform(0.1, 50.0)
        t = a * (y - c)
        lam = stable_logistic(t)
        rho = stable_rbf(t)
        assert abs(rho - (lam - lam * lam)) < 1e-12


def masked_logistic(t):
    """Two-branch overflow-free logistic, the reference for stable_logistic."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_logistic_matches_masked_reference():
    t = np.linspace(-800.0, 800.0, 1_600_001)
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error")
        got = stable_logistic(t)
        ref = masked_logistic(t)
    # Below t = -708 the exact value is subnormal: the reference keeps it and
    # expit returns 0.0, so that region compares absolutely.
    np.testing.assert_allclose(got, ref, rtol=5e-16, atol=np.finfo(float).tiny)
    ends = np.array([0.0, 800.0, -800.0])
    for f in (stable_logistic, masked_logistic):
        assert f(ends).tolist() == [0.5, 1.0, 0.0]


def test_conjunctive_kernel_matches_select_and_reduce():
    # The dimension-major kernel -- factors laid out (m, r, N), the RBF
    # factor applied to the tail of the members, products and sums taken
    # over the leading axis -- gives the bits of one select over the mask
    # followed by a reduction over the last axis of the (r, N, m) layout.
    # The RBF and its weight are taken at u = -|t|, where neither cancels.
    # m = 9 covers the summed-RBF sums numpy takes pairwise.
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 5, 9):
        c = rng.uniform(-1.0, 1.0, (7, m))
        a = np.exp(rng.uniform(-1.0, 3.0, (7, m)))
        y = rng.uniform(-2.0, 2.0, (40, m))
        t = a[None] * (y[:, None, :] - c[None])
        lam, lam_u = stable_logistic(t), stable_logistic(-np.abs(t))
        rho = lam_u * (1.0 - lam_u)
        odd = np.copysign((1.0 - lam_u) - lam_u, -t)
        cases = ((Family.SILL, np.zeros(7, bool)), (Family.AUGSILL, np.arange(7) >= 3),
                 (Family.SUMMED_RBF, np.ones(7, bool)))
        for family, rbf in cases:
            mask = rbf[None, :, None]
            if family == Family.SUMMED_RBF:
                vals = rho.sum(axis=2)
                s = rho * odd
            else:
                vals = np.where(mask, rho, lam).prod(axis=2)
                s = np.where(mask, odd, 1.0 - lam) * vals[:, :, None]
            assert member_values_packed(family, c, a, rbf, y).tobytes() == vals.tobytes()
            got_vals, got_s = member_sensitivities_packed(family, c, a, rbf, y)
            assert got_vals.tobytes() == vals.tobytes()
            assert got_s.shape == (m, 40, 7)
            assert got_s.tobytes() == np.moveaxis(s, 2, 0).tobytes()


def test_rbf_factor_is_accurate_and_even_far_out():
    # exp(-|t|)/(1+exp(-|t|))^2 over t in [-700, 700]: stable_rbf and the RBF
    # factor of the kernel (m = 1, center 0, steepness 1, for summedrbf and
    # for the RBF member of an augsill pair) are accurate to a few ulps,
    # bitwise even, and their sensitivity rho (1 - 2 lam) = -rho tanh(t/2)
    # is exactly odd (at t = 0 it is +0.0 for either zero).
    t = np.linspace(-700.0, 700.0, 1_400_001)
    e = np.exp(-np.abs(t))
    ref = e / (1.0 + e) ** 2
    far = np.abs(t) >= 1.0
    got = stable_rbf(t)
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)
    assert got.tobytes() == stable_rbf(-t).tobytes()
    for family, rbf in ((Family.SUMMED_RBF, [True]), (Family.AUGSILL, [False, True])):
        n = len(rbf)
        c, a = np.zeros((n, 1)), np.ones((n, 1))
        vals, s = member_sensitivities_packed(family, c, a, np.array(rbf), t[:, None])
        vals_neg, s_neg = member_sensitivities_packed(family, c, a, np.array(rbf), -t[:, None])
        np.testing.assert_allclose(vals[:, -1], ref, rtol=1e-15, atol=0)
        assert vals[:, -1].tobytes() == vals_neg[:, -1].tobytes()
        assert np.array_equal(s[0, :, -1], -s_neg[0, :, -1])
        np.testing.assert_allclose(s[0, far, -1], -ref[far] * np.tanh(t[far] / 2.0),
                                   rtol=2e-15, atol=0)
        assert member_values_packed(family, c, a, np.array(rbf), t[:, None]).tobytes() \
            == vals.tobytes()
    # The logistic head of the augsill pair keeps the stable logistic's bits.
    assert vals[:, 0].tobytes() == stable_logistic(t).tobytes()


# -- conjunctive functions ---------------------------------------------------


def test_conjunctive_center_values():
    f3 = conj(Kind.LOGISTIC, [0.1, -0.4, 2.0], [1, 2, 3])
    assert eval_conjunctive(f3, np.array([0.1, -0.4, 2.0])) == 0.125
    f2 = conj(Kind.RBF, [1.0, -1.0], [5, 5])
    assert eval_conjunctive(f2, np.array([1.0, -1.0])) == 0.0625


def test_conjunctive_rbf_identity_pointwise():
    rng = np.random.default_rng(3)
    f = conj(Kind.RBF, rng.uniform(-1, 1, 4), rng.uniform(0.5, 4, 4))
    y = rng.uniform(-2, 2, 4)
    per_dim = [
        eval_scalar_basis(Kind.LOGISTIC, y[i], f.params[i]) for i in range(4)
    ]
    expect = np.prod([lam - lam**2 for lam in per_dim])
    assert abs(eval_conjunctive(f, y) - expect) < 1e-15


def test_conjunctive_ranges():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = rng.integers(1, 4)
        fl = conj(Kind.LOGISTIC, rng.uniform(-1, 1, m), rng.uniform(0.2, 5, m))
        fr = conj(Kind.RBF, rng.uniform(-1, 1, m), rng.uniform(0.2, 5, m))
        y = rng.uniform(-3, 3, m)
        vl = eval_conjunctive(fl, y)
        vr = eval_conjunctive(fr, y)
        assert 0.0 < vl < 1.0
        assert 0.0 < vr <= 0.25**m + 1e-15


def test_conjunctive_maximum_at_center_grid():
    # grid search over a 41^m lattice: no point beats the center value
    for m in (1, 2):
        f = conj(Kind.RBF, [0.3] * m, [1.7] * m)
        axes = [np.linspace(-2, 2, 41)] * m
        grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, m)
        vals = [eval_conjunctive(f, y) for y in grid]
        assert max(vals) <= 0.25**m
        assert abs(eval_conjunctive(f, np.full(m, 0.3)) - 0.25**m) < 1e-15


def test_conjunctive_dimension_mismatch():
    f = conj(Kind.LOGISTIC, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        eval_conjunctive(f, np.zeros(3))


def test_assumption_order_property():
    # lower centers dominate pointwise when steepness vectors match
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rng.integers(1, 4)
        steeps = rng.uniform(0.5, 3, m)
        mu_l = rng.uniform(-1, 1, m)
        mu_j = mu_l + rng.uniform(0, 1, m)  # mu_l <= mu_j elementwise
        fl = conj(Kind.LOGISTIC, mu_l, steeps)
        fj = conj(Kind.LOGISTIC, mu_j, steeps)
        for y in rng.uniform(-3, 3, (10, m)):
            assert eval_conjunctive(fl, y) >= eval_conjunctive(fj, y)


# -- steep-limit surrogates ---------------------------------------------------


def test_product_limit_takes_elementwise_max_center():
    fl = conj(Kind.LOGISTIC, [0.0, 2.0], [1.0, 1.0])
    fj = conj(Kind.LOGISTIC, [1.0, -1.0], [3.0, 3.0])
    star = product_limit_logistic(fl, fj)
    assert star.centers.tolist() == [1.0, 2.0]
    assert star.steepnesses.tolist() == [3.0, 1.0]


def test_product_limit_tie_keeps_steeper():
    fl = conj(Kind.LOGISTIC, [0.5], [1.0])
    fj = conj(Kind.LOGISTIC, [0.5], [4.0])
    assert product_limit_logistic(fl, fj).steepnesses[0] == 4.0
    assert product_limit_logistic(fj, fl).steepnesses[0] == 4.0


def test_product_limit_rejects_rbf():
    fl = conj(Kind.LOGISTIC, [0.0], [1.0])
    fr = conj(Kind.RBF, [0.0], [1.0])
    with pytest.raises(ParameterDomainError):
        product_limit_logistic(fl, fr)


def test_h_function_branches():
    log00 = conj(Kind.LOGISTIC, [0.0, 0.0], [1.0, 1.0])
    rbf11 = conj(Kind.RBF, [1.0, 1.0], [1.0, 1.0])
    # rbf center above in both dims: value of the rbf itself
    assert h_function(np.array([1.0, 1.0]), log00, rbf11) == 0.0625
    # rbf strictly below in every dim: zero
    log11 = conj(Kind.LOGISTIC, [1.0, 1.0], [1.0, 1.0])
    rbf00 = conj(Kind.RBF, [0.0, 0.0], [1.0, 1.0])
    assert h_function(np.array([5.0, -3.0]), log11, rbf00) == 0.0
    # mixed: one coordinate above suffices
    log02 = conj(Kind.LOGISTIC, [0.0, 2.0], [1.0, 1.0])
    y = np.array([0.7, 0.2])
    assert h_function(y, log02, rbf11) == eval_conjunctive(rbf11, y)


def test_packed_limit_rules_match_member_forms():
    # Centers on a half-integer grid, so many pairs tie in some dimension.
    rng = np.random.default_rng(4)
    c = rng.integers(-2, 3, (8, 3)) / 2.0
    a = rng.choice([0.5, 1.0, 2.0], size=c.shape)
    members = conjunctive_members(c, a, [False] * 8)
    # Every ordered pair at once, broadcast the way lie_closure_error does.
    c_star, a_star = limit_logistic_packed(c[:, None], a[:, None], c[None], a[None])
    ties = 0
    for i, fl in enumerate(members):
        for j, fj in enumerate(members):
            # Per dimension: the larger center wins, a tie keeps the steeper.
            want = tuple(pl if (pl.center, pl.steepness) >= (pj.center, pj.steepness) else pj
                         for pl, pj in zip(fl.params, fj.params))
            star = product_limit_logistic(fl, fj)
            assert star.params == want
            assert c_star[i, j].tolist() == star.centers.tolist()
            assert a_star[i, j].tolist() == star.steepnesses.tolist()
            ties += i != j and bool(np.any(fl.centers == fj.centers))
    assert ties > 0
    # The branch rule against h_function, on the points and members of
    # test_h_function_branches and every cross pairing of them.
    cases = [
        (conj(Kind.LOGISTIC, [0.0, 0.0], [1.0, 1.0]), conj(Kind.RBF, [1.0, 1.0], [1.0, 1.0]),
         np.array([1.0, 1.0])),
        (conj(Kind.LOGISTIC, [1.0, 1.0], [1.0, 1.0]), conj(Kind.RBF, [0.0, 0.0], [1.0, 1.0]),
         np.array([5.0, -3.0])),
        (conj(Kind.LOGISTIC, [0.0, 2.0], [1.0, 1.0]), conj(Kind.RBF, [1.0, 1.0], [1.0, 1.0]),
         np.array([0.7, 0.2])),
    ]
    c_log = np.array([fl.centers for fl, _, _ in cases])
    c_rbf = np.array([fk.centers for _, fk, _ in cases])
    survives = rbf_branch_survives(c_log[:, None], c_rbf[None])
    assert survives.diagonal().tolist() == [True, False, True]
    for i, (fl, _, y) in enumerate(cases):
        for k, (_, fk, _) in enumerate(cases):
            assert rbf_branch_survives(fl.centers, fk.centers) == survives[i, k]
            assert survives[i, k] == (h_function(y, fl, fk) != 0.0)


def test_h_function_validates_kinds():
    log = conj(Kind.LOGISTIC, [0.0], [1.0])
    rbf = conj(Kind.RBF, [0.0], [1.0])
    with pytest.raises(ParameterDomainError):
        h_function(np.array([1.0]), rbf, rbf)
    with pytest.raises(ParameterDomainError):
        h_function(np.array([1.0]), log, log)


# -- lifting -------------------------------------------------------------------


def test_lift_no_members():
    d = Dictionary.linear(2)
    np.testing.assert_array_equal(lift(d, np.array([0.3, -0.7])), [1.0, 0.3, -0.7])


def test_lift_augsill_center_values():
    d = Dictionary.augsill(
        [conj(Kind.LOGISTIC, [0.0], [1.0]), conj(Kind.RBF, [0.0], [1.0])]
    )
    np.testing.assert_allclose(lift(d, np.zeros(1)), [1.0, 0.0, 0.5, 0.25])


def test_lift_hermite_values():
    # physicists' Hermite: H2(x) = 4x^2 - 2, H3(x) = 8x^3 - 12x
    d = Dictionary.hermite(1, 2)
    assert d.members == ((2,), (3,))
    got = lift(d, np.array([0.5]))
    np.testing.assert_allclose(got, [1.0, 0.5, -1.0, -5.0], atol=1e-14)


def test_lift_legendre_values():
    # P2(x) = (3x^2 - 1)/2, P3(x) = (5x^3 - 3x)/2
    d = Dictionary.legendre(1, 2)
    got = lift(d, np.array([0.5]))
    np.testing.assert_allclose(got, [1.0, 0.5, -0.125, -0.4375], atol=1e-14)


def per_member_polynomials(d, Y):
    """Reference for polynomial dictionaries: member values (r, N) and
    state-Jacobians (r, N, m), gathered and multiplied one member at a time."""
    vals, ders = _poly_1d(d.family, Y, max(max(idx) for idx in d.members))
    dims = np.arange(d.m)
    V = np.stack([vals[:, dims, np.array(idx)].prod(axis=1) for idx in d.members], axis=1)
    J = np.zeros((len(Y), d.n_members, d.m))
    for j, idx in enumerate(d.members):
        fac = vals[:, dims, np.array(idx)]  # (r, m)
        dfac = ders[:, dims, np.array(idx)]
        for i in range(d.m):
            others = fac[:, [q for q in range(d.m) if q != i]].prod(axis=1)
            J[:, j, i] = dfac[:, i] * others
    return V, J


@pytest.mark.parametrize("family", [Family.LEGENDRE, Family.HERMITE])
def test_polynomial_members_match_per_member_reference(family):
    rng = np.random.default_rng(47)
    for m in (1, 2, 3, 4):
        for n in (1, 5, 20):
            d = Dictionary(family, m, polynomial_multi_indices(m, n))
            Y = rng.uniform(-1.5, 1.5, (13, m))
            V, J = per_member_polynomials(d, Y)
            assert lift_many(d, Y)[:, 1 + m :].tobytes() == V.tobytes(), (m, n)
            assert lift_jacobian_many(d, Y)[:, 1 + m :].tobytes() == J.tobytes(), (m, n)


@pytest.mark.parametrize("family", [Family.LEGENDRE, Family.HERMITE])
def test_integral_float_degrees_lift_like_ints(family):
    d = Dictionary(family, 2, [(2.0, 0.0), (1, 1.0), (0, 3)])
    ref = Dictionary(family, 2, [(2, 0), (1, 1), (0, 3)])
    assert d.members == ref.members
    assert all(type(k) is int for idx in d.members for k in idx)
    Y = np.random.default_rng(53).uniform(-1, 1, (6, 2))
    assert lift_many(d, Y).tobytes() == lift_many(ref, Y).tobytes()
    assert lift_jacobian_many(d, Y).tobytes() == lift_jacobian_many(ref, Y).tobytes()
    assert dictionary_to_text(d) == dictionary_to_text(ref)
    one = Dictionary(family, 1, [(2.0,)])
    assert lift(one, np.array([0.5])).tobytes() == lift(
        Dictionary(family, 1, [(2,)]), np.array([0.5])).tobytes()
    for bad in ((2.5,), (-1,), (1,), (np.nan,), (np.inf,), ("2",)):
        with pytest.raises(ParameterDomainError):
            Dictionary(family, 1, [bad])


def test_lift_structure_all_families():
    rng = np.random.default_rng(23)
    for family in Family:
        d = random_dictionary(family, 2, 5, rng)
        y = rng.uniform(-1, 1, 2)
        z = lift(d, y)
        assert z.shape == (1 + 2 + 5,)
        assert z[0] == 1.0
        assert z[1] == y[0] and z[2] == y[1]
        batch = lift_many(d, np.array([y, y + 0.1]))
        np.testing.assert_array_equal(batch[0], z)


def test_lift_rejects_wrong_shape():
    d = Dictionary.linear(2)
    with pytest.raises(DimensionMismatchError):
        lift(d, np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        lift_many(d, np.zeros((4, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lift_rejects_non_finite_points(bad):
    d = Dictionary.sill([conj(Kind.LOGISTIC, [0.0, 0.5], [1.0, 2.0])])
    y = np.zeros((3, 2))
    y[1, 0] = bad
    with pytest.raises(ParameterDomainError):
        lift_many(d, y)


# -- gradients ------------------------------------------------------------------


def central_diff_jacobian(d, y, h=1e-6):
    m = y.size
    cols = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        cols.append((lift(d, y + e) - lift(d, y - e)) / (2 * h))
    return np.stack(cols, axis=1)


def rel_close(analytic, numeric, rel=1e-5, floor=1e-8):
    mask = np.abs(analytic) > floor
    if not np.any(mask):
        return np.all(np.abs(numeric) < 1e-6)
    err = np.abs(analytic - numeric)[mask] / np.abs(analytic)[mask]
    return float(err.max()) < rel


def test_jacobian_known_value():
    # single scalar logistic at its center: slope a*(1-lam)*lam = 0.25
    d = Dictionary.sill([conj(Kind.LOGISTIC, [0.0], [1.0])])
    J = lift_jacobian(d, np.zeros(1))
    assert J[0, 0] == 0.0
    assert J[1, 0] == 1.0
    assert abs(J[2, 0] - 0.25) < 1e-15


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(29)
    for family in Family:
        for _ in range(20):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            d = random_dictionary(family, m, n, rng)
            y = rng.uniform(-1.5, 1.5, m)
            J = lift_jacobian(d, y)
            assert rel_close(J, central_diff_jacobian(d, y))


def test_jacobian_batch_matches_single():
    rng = np.random.default_rng(31)
    d = random_dictionary(Family.AUGSILL, 2, 4, rng)
    Y = rng.uniform(-1, 1, (6, 2))
    batch = lift_jacobian_many(d, Y)
    for t in range(6):
        np.testing.assert_array_equal(batch[t], lift_jacobian(d, Y[t]))


def test_param_gradients_known_value():
    # d(lam)/dmu = -a*lam*(1-lam) at y=1, mu=0, a=1
    d = Dictionary.sill([conj(Kind.LOGISTIC, [0.0], [1.0])])
    g = param_gradients(d, np.ones(1))
    assert abs(g.d_center[0, 0] - (-0.19661193324148185)) < 1e-15


def test_param_gradient_zero_at_center():
    d = Dictionary.sill([conj(Kind.LOGISTIC, [0.7], [2.0])])
    g = param_gradients(d, np.array([0.7]))
    assert g.d_steepness[0, 0] == 0.0


def test_param_gradients_match_finite_differences():
    rng = np.random.default_rng(37)
    h = 1e-6
    for family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            centers = rng.uniform(-1, 1, (n, m))
            steeps = rng.uniform(0.5, 3, (n, m))
            y = rng.uniform(-1.5, 1.5, m)

            def build(c, s):
                if family == Family.SUMMED_RBF:
                    ms = [
                        tuple(ScalarBasisParams(ci, si) for ci, si in zip(cr, sr))
                        for cr, sr in zip(c, s)
                    ]
                    return Dictionary.summed_rbf(ms, m)
                n_log = (n + 1) // 2 if family == Family.AUGSILL else n
                ms = [
                    conj(Kind.LOGISTIC if j < n_log else Kind.RBF, c[j], s[j])
                    for j in range(n)
                ]
                return Dictionary(family, m, tuple(ms))

            g = param_gradients(build(centers, steeps), y)
            for j in range(n):
                for i in range(m):
                    dc = np.zeros((n, m))
                    dc[j, i] = h
                    num_c = (
                        lift(build(centers + dc, steeps), y)[1 + m + j]
                        - lift(build(centers - dc, steeps), y)[1 + m + j]
                    ) / (2 * h)
                    num_s = (
                        lift(build(centers, steeps + dc), y)[1 + m + j]
                        - lift(build(centers, steeps - dc), y)[1 + m + j]
                    ) / (2 * h)
                    for got, want in ((g.d_center[j, i], num_c),
                                      (g.d_steepness[j, i], num_s)):
                        if abs(got) > 1e-8:
                            assert abs(got - want) / abs(got) < 1e-5
                        else:
                            assert abs(want) < 1e-6
    # The batch gradients carry the bits of the chain rule written out
    # against the kernel's sensitivity factor S, laid out (m, r, N).
    rng = np.random.default_rng(38)
    for family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF):
        for m in (1, 2, 3, 9):
            d = random_dictionary(family, m, 5, rng)
            Y = rng.uniform(-1.5, 1.5, (7, m))
            _, S = member_sensitivities_packed(family, d.centers, d.steepness, d.is_rbf, Y)
            a, c = d.steepness.T[:, None, :], d.centers.T[:, None, :]
            g = param_gradients_many(d, Y)
            assert g.d_center.tobytes() == np.moveaxis(-a * S, 0, -1).tobytes(), (family, m)
            assert g.d_steepness.tobytes() == np.moveaxis((Y.T[:, :, None] - c) * S, 0,
                                                          -1).tobytes(), (family, m)


def test_param_gradients_rejects_polynomials():
    d = Dictionary.legendre(2, 3)
    with pytest.raises(UnsupportedFamilyError):
        param_gradients(d, np.zeros(2))


# -- dictionary construction ------------------------------------------------------


def test_multi_indices_skip_low_degrees():
    idx = polynomial_multi_indices(2, 5)
    assert idx == ((0, 2), (1, 1), (2, 0), (0, 3), (1, 2))
    assert all(sum(i) >= 2 for i in idx)


def test_augsill_requires_logistic_block_first():
    log = conj(Kind.LOGISTIC, [0.0], [1.0])
    rbf = conj(Kind.RBF, [0.0], [1.0])
    Dictionary.augsill([log, rbf])  # fine
    with pytest.raises(ParameterDomainError):
        Dictionary.augsill([rbf, log])
    with pytest.raises(ParameterDomainError):
        Dictionary.from_packed(Family.AUGSILL, np.zeros((2, 1)), np.ones((2, 1)),
                               [True, False])


def test_sill_rejects_rbf_members():
    with pytest.raises(ParameterDomainError):
        Dictionary.sill([conj(Kind.RBF, [0.0], [1.0])])
    with pytest.raises(ParameterDomainError):
        Dictionary.from_packed(Family.SILL, np.zeros((1, 1)), np.ones((1, 1)), [True])


@pytest.mark.parametrize("family", [Family.SILL, Family.AUGSILL, Family.SUMMED_RBF])
def test_array_constructor_matches_members(family):
    # random_dictionary draws these same arrays and builds member objects
    rng = np.random.default_rng(43)
    centers = rng.uniform(-1.5, 1.5, (5, 2))
    steeps = rng.uniform(0.5, 3.0, (5, 2))
    n_log = {Family.SILL: 5, Family.AUGSILL: 3, Family.SUMMED_RBF: 0}[family]
    is_rbf = np.arange(5) >= n_log
    by_members = random_dictionary(family, 2, 5, np.random.default_rng(43))
    d = Dictionary.from_packed(family, centers, steeps, is_rbf)
    assert d.members == by_members.members
    Y = rng.uniform(-2, 2, (7, 2))
    assert lift_many(d, Y).tobytes() == lift_many(by_members, Y).tobytes()
    assert dictionary_to_text(d) == dictionary_to_text(by_members)
    # The constructor copies: training updates its arrays in place after
    # handing a dictionary to a callback.
    centers += 1.0
    steeps *= 2.0
    is_rbf[:] = True
    assert d.members == by_members.members
    for stored in (d.centers, d.steepness, d.is_rbf):
        with pytest.raises(ValueError):
            stored[0] = stored[1]


def test_dictionary_counts():
    d = Dictionary.augsill(
        [
            conj(Kind.LOGISTIC, [0.0, 0.0], [1, 1]),
            conj(Kind.LOGISTIC, [1.0, 1.0], [1, 1]),
            conj(Kind.RBF, [0.5, 0.5], [2, 2]),
        ]
    )
    assert (d.n_logistic, d.n_rbf, d.n_members, d.lifted_dim) == (2, 1, 3, 6)


def test_scaled_steepness_copy():
    d = Dictionary.sill([conj(Kind.LOGISTIC, [0.0, 1.0], [1.0, 2.0])])
    d2 = d.with_scaled_steepness(10.0)
    assert d2.members[0].steepnesses.tolist() == [10.0, 20.0]
    assert d.members[0].steepnesses.tolist() == [1.0, 2.0]
    with pytest.raises(ParameterDomainError):
        d.with_scaled_steepness(0.0)


# -- serialization ----------------------------------------------------------------


def test_roundtrip_exact_all_families(tmp_path):
    rng = np.random.default_rng(41)
    for family in Family:
        d = random_dictionary(family, 2, 4, rng)
        text = dictionary_to_text(d)
        d2 = dictionary_from_text(text)
        assert d2.family == d.family and d2.m == d.m
        assert d2.members == d.members
        p = tmp_path / f"{family.value}.ini"
        save_dictionary(d, p)
        d3 = load_dictionary(p)
        assert d3.members == d.members
        y = rng.uniform(-1, 1, 2)
        np.testing.assert_array_equal(lift(d, y), lift(d3, y))


def test_roundtrip_preserves_awkward_floats():
    d = Dictionary.sill([conj(Kind.LOGISTIC, [0.1 + 0.2], [1.0 / 3.0])])
    d2 = dictionary_from_text(dictionary_to_text(d))
    assert d2.members[0].params[0].center == 0.1 + 0.2
    assert d2.members[0].params[0].steepness == 1.0 / 3.0
