import warnings

import numpy as np
import pytest

from augsill.dictionaries import (
    _poly_1d,
    Dictionary,
    Family,
    dictionary_from_ini,
    dictionary_to_ini,
    lift,
    lift_jacobian,
    lift_jacobian_many,
    lift_many,
    limit_keeps_first,
    limit_logistic_packed,
    member_sensitivities_packed,
    member_values_packed,
    param_gradients,
    param_gradients_many,
    polynomial_multi_indices,
    rbf_branch_survives,
    stable_logistic,
    stable_rbf,
)
from augsill.errors import (
    DimensionMismatchError,
    ParameterDomainError,
    UnsupportedFamilyError,
    read_ini,
)


def member_value(rbf, centers, steeps, y):
    """Value at the point y of one conjunctive member, logistic or (rbf) RBF,
    through the packed kernel."""
    return float(member_values_packed(Family.AUGSILL, np.array([centers], dtype=float),
                                      np.array([steeps], dtype=float), np.array([rbf]),
                                      np.array([y], dtype=float))[0, 0])


def packed(family, centers, steeps):
    """Logistic/RBF dictionary over (n, m) rows, the family's mask: sill all
    logistic, augsill the first (n + 1) // 2 rows logistic, summedrbf all RBF."""
    n = len(centers)
    n_log = {Family.SILL: n, Family.AUGSILL: (n + 1) // 2, Family.SUMMED_RBF: 0}[family]
    return Dictionary.from_packed(family, centers, steeps, np.arange(n) >= n_log)


def random_dictionary(family, m, n, rng):
    """Seeded dictionary with centers in [-1.5, 1.5], steepness in [0.5, 3]."""
    centers = rng.uniform(-1.5, 1.5, (n, m))
    steeps = rng.uniform(0.5, 3.0, (n, m))
    if family in (Family.LEGENDRE, Family.HERMITE):
        return Dictionary(family, m, polynomial_multi_indices(m, n))
    return packed(family, centers, steeps)


def ini_sections(d):
    """The model-file sections dictionary_to_ini writes for d."""
    cp = dictionary_to_ini(d)
    return {sec: dict(cp[sec]) for sec in cp.sections()}


# -- scalar bases ------------------------------------------------------------


def test_logistic_at_center_is_half():
    for alpha in (0.1, 1.0, 7.3, 120.0):
        assert stable_logistic(alpha * (0.4 - 0.4)) == 0.5


def test_rbf_at_center_is_quarter():
    for alpha in (0.1, 1.0, 7.3, 120.0):
        assert stable_rbf(alpha * (-1.2 - -1.2)) == 0.25


def test_logistic_known_value():
    # 1/(1+e^-2) evaluated independently to full precision
    got = stable_logistic(2.0 * (1.0 - 0.0))
    assert abs(got - 0.8807970779778823) < 1e-15


def test_scalar_basis_overflow_safe():
    assert stable_logistic(1e6 * 1.0) == 1.0
    assert stable_logistic(1e6 * -1.0) == 0.0
    assert stable_rbf(1e6 * 1.0) == 0.0
    lo = stable_rbf(1e6 * -1.0)
    assert lo == 0.0


def test_scalar_basis_rejects_bad_input():
    for c, a in ((float("nan"), 1.0), (0.0, 0.0), (0.0, -2.0), (float("inf"), 1.0),
                 (0.0, float("inf"))):
        with pytest.raises(ParameterDomainError):
            Dictionary.from_packed(Family.SILL, [[c]], [[a]], [False])


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
    # Below t = -708 the exact value is subnormal: the reference keeps it,
    # and stable_logistic returns 0.0 once exp(-t) overflows below t = -709.78,
    # so that region compares absolutely.
    np.testing.assert_allclose(got, ref, rtol=5e-16, atol=np.finfo(float).tiny)
    ends = np.array([0.0, 800.0, -800.0])
    for f in (stable_logistic, masked_logistic):
        assert f(ends).tolist() == [0.5, 1.0, 0.0]


def test_logistic_edges_are_exact_and_warning_free():
    # exp(-t) overflows to inf below t = -709.78 (result 0.0) and rounds
    # 1 + exp(-t) to 1 from t = 37 (result 1.0), with no warning at any t
    # (underflow to a subnormal stays silent, numpy's default).
    edges = [0.0, 709.78, 745.0, 1e308, np.inf]
    t = np.array(edges + [-e for e in edges] + [-709.79, -800.0, 37.0, 40.0, np.nan])
    with warnings.catch_warnings(), np.errstate(over="warn", divide="warn", invalid="warn"):
        warnings.simplefilter("error")
        got = stable_logistic(t)
        scalars = [stable_logistic(float(v)) for v in t]
    assert got[[0, 5]].tolist() == [0.5, 0.5]
    assert np.all(got[1:5] == 1.0) and np.all(got[[12, 13]] == 1.0)
    assert np.all(got[[7, 8, 9, 10, 11]] == 0.0)
    assert 0.0 < got[6] < np.finfo(float).tiny  # -709.78: exp(709.78) is finite
    assert np.isnan(got[14])
    assert all(type(v) is np.float64 for v in scalars)
    assert type(stable_logistic(np.asarray(1.5))) is np.float64
    assert np.array(scalars).tobytes() == got.tobytes()


def test_logistic_bits_do_not_depend_on_layout():
    # The kernel's reruns are bitwise equal only if a value's bits depend on
    # the value alone: a contiguous array, strided, offset and reversed views,
    # a Fortran-ordered copy and one call per scalar all give the same bits.
    t = np.random.default_rng(5).uniform(-750.0, 750.0, 10_001)
    full = stable_logistic(t)
    for view, expected in ((t[::3], full[::3]), (t[1:], full[1:]), (t[::-1], full[::-1]),
                           (np.asfortranarray(t.reshape(73, 137)), full.reshape(73, 137))):
        assert stable_logistic(view).tobytes() == np.ascontiguousarray(expected).tobytes()
    one_by_one = np.array([stable_logistic(float(v)) for v in t[:2000]])
    assert one_by_one.tobytes() == full[:2000].tobytes()


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
    # stable_rbf is the summedrbf kernel's factor bit for bit, here and far out.
    t = np.concatenate([t, [0.0, -0.0, 5e-324, -5e-324, 745.0, -745.0, 1e308, -1e308]])
    assert stable_rbf(t).tobytes() == member_values_packed(
        Family.SUMMED_RBF, np.zeros((1, 1)), np.ones((1, 1)), np.array([True]), t[:, None]
    )[:, 0].tobytes()


# -- conjunctive functions ---------------------------------------------------


def test_conjunctive_center_values():
    assert member_value(False, [0.1, -0.4, 2.0], [1, 2, 3], [0.1, -0.4, 2.0]) == 0.125
    assert member_value(True, [1.0, -1.0], [5, 5], [1.0, -1.0]) == 0.0625


def test_conjunctive_rbf_identity_pointwise():
    rng = np.random.default_rng(3)
    c, a = rng.uniform(-1, 1, 4), rng.uniform(0.5, 4, 4)
    y = rng.uniform(-2, 2, 4)
    per_dim = [float(stable_logistic(a[i] * (y[i] - c[i]))) for i in range(4)]
    expect = np.prod([lam - lam**2 for lam in per_dim])
    assert abs(member_value(True, c, a, y) - expect) < 1e-15


def test_conjunctive_ranges():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = rng.integers(1, 4)
        cl, al = rng.uniform(-1, 1, m), rng.uniform(0.2, 5, m)
        cr, ar = rng.uniform(-1, 1, m), rng.uniform(0.2, 5, m)
        y = rng.uniform(-3, 3, m)
        vl = member_value(False, cl, al, y)
        vr = member_value(True, cr, ar, y)
        assert 0.0 < vl < 1.0
        assert 0.0 < vr <= 0.25**m + 1e-15


def test_conjunctive_maximum_at_center_grid():
    # grid search over a 41^m lattice: no point beats the center value
    for m in (1, 2):
        axes = [np.linspace(-2, 2, 41)] * m
        grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, m)
        vals = [member_value(True, [0.3] * m, [1.7] * m, y) for y in grid]
        assert max(vals) <= 0.25**m
        assert abs(member_value(True, [0.3] * m, [1.7] * m, np.full(m, 0.3)) - 0.25**m) < 1e-15


def test_conjunctive_dimension_mismatch():
    d = Dictionary.from_packed(Family.SILL, [[0.0, 0.0]], [[1.0, 1.0]], [False])
    with pytest.raises(DimensionMismatchError):
        lift(d, np.zeros(3))
    # Rows of centers and steepness, and the mask, must agree in shape.
    for c, a, rbf in (([[0.0, 0.0]], [[1.0, 1.0, 1.0]], [False]),
                      ([[0.0, 0.0]], [[1.0, 1.0]], [False, False]),
                      ([0.0, 0.0], [1.0, 1.0], [False])):
        with pytest.raises(DimensionMismatchError):
            Dictionary.from_packed(Family.SILL, c, a, rbf)


def test_assumption_order_property():
    # lower centers dominate pointwise when steepness vectors match
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rng.integers(1, 4)
        steeps = rng.uniform(0.5, 3, m)
        mu_l = rng.uniform(-1, 1, m)
        mu_j = mu_l + rng.uniform(0, 1, m)  # mu_l <= mu_j elementwise
        for y in rng.uniform(-3, 3, (10, m)):
            assert member_value(False, mu_l, steeps, y) >= member_value(False, mu_j, steeps, y)


# -- steep-limit surrogates ---------------------------------------------------


def test_product_limit_takes_elementwise_max_center():
    c, a = limit_logistic_packed(np.array([0.0, 2.0]), np.array([1.0, 1.0]),
                                 np.array([1.0, -1.0]), np.array([3.0, 3.0]))
    assert c.tolist() == [1.0, 2.0]
    assert a.tolist() == [3.0, 1.0]


def test_product_limit_tie_keeps_steeper():
    c_l, a_l, c_j, a_j = np.array([0.5]), np.array([1.0]), np.array([0.5]), np.array([4.0])
    assert limit_logistic_packed(c_l, a_l, c_j, a_j)[1][0] == 4.0
    assert limit_logistic_packed(c_j, a_j, c_l, a_l)[1][0] == 4.0


def h_value(c_log, c_rbf, a_rbf, y):
    """The steep limit of a logistic-RBF product at y: the RBF's value where
    its branch survives, else 0."""
    return member_value(True, c_rbf, a_rbf, y) if rbf_branch_survives(c_log, c_rbf) else 0.0


def test_h_function_branches():
    ones = [1.0, 1.0]
    # rbf center above in both dims: value of the rbf itself
    assert h_value(np.array([0.0, 0.0]), np.array(ones), ones, [1.0, 1.0]) == 0.0625
    # rbf strictly below in every dim: zero
    assert h_value(np.array(ones), np.array([0.0, 0.0]), ones, [5.0, -3.0]) == 0.0
    # mixed: one coordinate above suffices
    y = np.array([0.7, 0.2])
    assert h_value(np.array([0.0, 2.0]), np.array(ones), ones, y) == member_value(True, ones, ones, y)


def test_packed_limit_rules_match_member_forms():
    # Centers on a half-integer grid, so many pairs tie in some dimension.
    rng = np.random.default_rng(4)
    c = rng.integers(-2, 3, (8, 3)) / 2.0
    a = rng.choice([0.5, 1.0, 2.0], size=c.shape)
    # Every ordered pair at once, broadcast the way lie_closure_error does.
    c_star, a_star = limit_logistic_packed(c[:, None], a[:, None], c[None], a[None])
    take = limit_keeps_first(c[:, None], a[:, None], c[None], a[None])
    ties = 0
    for i in range(8):
        for j in range(8):
            # Per dimension: the larger center wins, a tie keeps the steeper.
            want = [pl if pl >= pj else pj
                    for pl, pj in zip(zip(c[i], a[i]), zip(c[j], a[j]))]
            assert list(zip(c_star[i, j].tolist(), a_star[i, j].tolist())) == want
            assert take[i, j].tolist() == [pl >= pj for pl, pj in
                                           zip(zip(c[i], a[i]), zip(c[j], a[j]))]
            ties += i != j and bool(np.any(c[i] == c[j]))
    assert ties > 0
    # The branch rule, on the points and members of test_h_function_branches
    # and every cross pairing of them: the RBF survives where its center is
    # at or above the logistic's in some dimension.
    c_log = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    c_rbf = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    survives = rbf_branch_survives(c_log[:, None], c_rbf[None])
    assert survives.diagonal().tolist() == [True, False, True]
    for i in range(3):
        for k in range(3):
            assert rbf_branch_survives(c_log[i], c_rbf[k]) == survives[i, k]
            assert survives[i, k] == any(r >= g for g, r in zip(c_log[i], c_rbf[k]))


# -- lifting -------------------------------------------------------------------


def test_lift_no_members():
    d = Dictionary.linear(2)
    np.testing.assert_array_equal(lift(d, np.array([0.3, -0.7])), [1.0, 0.3, -0.7])


def test_lift_augsill_center_values():
    d = Dictionary.from_packed(Family.AUGSILL, [[0.0], [0.0]], [[1.0], [1.0]], [False, True])
    np.testing.assert_allclose(lift(d, np.zeros(1)), [1.0, 0.0, 0.5, 0.25])


def test_lift_hermite_values():
    # physicists' Hermite: H2(x) = 4x^2 - 2, H3(x) = 8x^3 - 12x
    d = Dictionary.hermite(1, 2)
    assert d.degrees.tolist() == [[2], [3]]
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
    degrees = d.degrees.tolist()
    vals, ders = _poly_1d(d.family, Y, max(max(idx) for idx in degrees))
    dims = np.arange(d.m)
    V = np.stack([vals[:, dims, np.array(idx)].prod(axis=1) for idx in degrees], axis=1)
    J = np.zeros((len(Y), d.n_members, d.m))
    for j, idx in enumerate(degrees):
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
    assert d.degrees.tolist() == ref.degrees.tolist() == [[2, 0], [1, 1], [0, 3]]
    assert d.degrees.dtype == ref.degrees.dtype == np.int64
    Y = np.random.default_rng(53).uniform(-1, 1, (6, 2))
    assert lift_many(d, Y).tobytes() == lift_many(ref, Y).tobytes()
    assert lift_jacobian_many(d, Y).tobytes() == lift_jacobian_many(ref, Y).tobytes()
    assert ini_sections(d) == ini_sections(ref)
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
    d = Dictionary.from_packed(Family.SILL, [[0.0, 0.5]], [[1.0, 2.0]], [False])
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
    d = Dictionary.from_packed(Family.SILL, [[0.0]], [[1.0]], [False])
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
    d = Dictionary.from_packed(Family.SILL, [[0.0]], [[1.0]], [False])
    g = param_gradients(d, np.ones(1))
    assert abs(g.d_center[0, 0] - (-0.19661193324148185)) < 1e-15


def test_param_gradient_zero_at_center():
    d = Dictionary.from_packed(Family.SILL, [[0.7]], [[2.0]], [False])
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

            g = param_gradients(packed(family, centers, steeps), y)
            for j in range(n):
                for i in range(m):
                    dc = np.zeros((n, m))
                    dc[j, i] = h
                    num_c = (
                        lift(packed(family, centers + dc, steeps), y)[1 + m + j]
                        - lift(packed(family, centers - dc, steeps), y)[1 + m + j]
                    ) / (2 * h)
                    num_s = (
                        lift(packed(family, centers, steeps + dc), y)[1 + m + j]
                        - lift(packed(family, centers, steeps - dc), y)[1 + m + j]
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
    Dictionary.from_packed(Family.AUGSILL, np.zeros((2, 1)), np.ones((2, 1)),
                           [False, True])  # fine
    with pytest.raises(ParameterDomainError):
        Dictionary.from_packed(Family.AUGSILL, np.zeros((2, 1)), np.ones((2, 1)),
                               [True, False])


def test_sill_rejects_rbf_members():
    with pytest.raises(ParameterDomainError):
        Dictionary.from_packed(Family.SILL, np.zeros((1, 1)), np.ones((1, 1)), [True])
    with pytest.raises(ParameterDomainError):
        Dictionary.from_packed(Family.SUMMED_RBF, np.zeros((1, 1)), np.ones((1, 1)), [False])
    # The constructor builds polynomial dictionaries only, and from_packed
    # builds none.
    with pytest.raises(UnsupportedFamilyError):
        Dictionary(Family.SILL, 1, [])
    with pytest.raises(UnsupportedFamilyError):
        Dictionary.from_packed(Family.LEGENDRE, np.zeros((1, 1)), np.ones((1, 1)), [False])


@pytest.mark.parametrize("family", [Family.SILL, Family.AUGSILL, Family.SUMMED_RBF])
def test_array_constructor_matches_members(family):
    # Each member is its own row: the dictionary's lift holds, bit for bit,
    # the value of every row evaluated on its own.
    rng = np.random.default_rng(43)
    centers = rng.uniform(-1.5, 1.5, (5, 2))
    steeps = rng.uniform(0.5, 3.0, (5, 2))
    n_log = {Family.SILL: 5, Family.AUGSILL: 3, Family.SUMMED_RBF: 0}[family]
    is_rbf = np.arange(5) >= n_log
    d = Dictionary.from_packed(family, centers, steeps, is_rbf)
    assert (d.n_logistic, d.n_rbf) == (n_log, 5 - n_log)
    Y = rng.uniform(-2, 2, (7, 2))
    rows = [member_values_packed(family, centers[j:j + 1], steeps[j:j + 1], is_rbf[j:j + 1], Y)
            for j in range(5)]
    assert lift_many(d, Y)[:, 3:].tobytes() == np.hstack(rows).tobytes()
    # The constructor copies: training updates its arrays in place after
    # handing a dictionary to a callback.
    kept = [x.copy() for x in (centers, steeps, is_rbf)]
    centers += 1.0
    steeps *= 2.0
    is_rbf[:] = True
    for stored, want in zip((d.centers, d.steepness, d.is_rbf), kept):
        assert stored.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            stored[0] = stored[1]


def test_dictionary_counts():
    d = Dictionary.from_packed(Family.AUGSILL, [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]],
                               [[1, 1], [1, 1], [2, 2]], [False, False, True])
    assert (d.n_logistic, d.n_rbf, d.n_members, d.lifted_dim) == (2, 1, 3, 6)
    for poly in (Dictionary.legendre(2, 4), Dictionary.linear(2)):
        assert (poly.n_logistic, poly.n_rbf) == (0, 0)
    assert (Dictionary.linear(2).n_members, Dictionary.linear(2).lifted_dim) == (0, 3)


def test_scaled_steepness_copy():
    d = Dictionary.from_packed(Family.SILL, [[0.0, 1.0]], [[1.0, 2.0]], [False])
    d2 = d.with_scaled_steepness(10.0)
    assert d2.steepness.tolist() == [[10.0, 20.0]]
    assert d.steepness.tolist() == [[1.0, 2.0]]
    assert d2.centers.tolist() == d.centers.tolist()
    with pytest.raises(ParameterDomainError):
        d.with_scaled_steepness(0.0)
    # A polynomial dictionary has no steepness, and instances are immutable.
    poly = Dictionary.legendre(2, 3)
    assert poly.with_scaled_steepness(10.0) is poly
    with pytest.raises(ParameterDomainError):
        poly.with_scaled_steepness(np.inf)
    with pytest.raises(ValueError):
        poly.degrees[0, 0] = 5


# -- dictionary text ---------------------------------------------------------


def ini_roundtrip(d, path):
    """d written as the model file's dictionary sections and read back."""
    with open(path, "w") as fh:
        dictionary_to_ini(d).write(fh)
    return dictionary_from_ini(read_ini(path), path)


def test_roundtrip_exact_all_families(tmp_path):
    rng = np.random.default_rng(41)
    for family in Family:
        d = random_dictionary(family, 2, 4, rng)
        d2 = ini_roundtrip(d, tmp_path / f"{family.value}.ini")
        assert (d2.family, d2.m, d2.n_members) == (d.family, d.m, d.n_members)
        for field in ("centers", "steepness", "is_rbf", "degrees"):
            x, y = getattr(d2, field), getattr(d, field)
            if y is None:
                assert x is None, (family, field)
            else:
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), \
                    (family, field)
        y = rng.uniform(-1, 1, 2)
        np.testing.assert_array_equal(lift(d, y), lift(d2, y))


def test_roundtrip_preserves_awkward_floats(tmp_path):
    d = Dictionary.from_packed(Family.SILL, [[0.1 + 0.2]], [[1.0 / 3.0]], [False])
    d2 = ini_roundtrip(d, tmp_path / "awkward.ini")
    assert d2.centers[0, 0] == 0.1 + 0.2
    assert d2.steepness[0, 0] == 1.0 / 3.0
