import numpy as np
import pytest
from scipy.linalg import LinAlgError, expm

from augsill import solver

from augsill.dictionaries import (
    ConjunctiveFunction,
    Dictionary,
    Kind,
    ScalarBasisParams,
)
from augsill.errors import (
    DataError,
    DomainError,
    EvaluationWindowError,
    IllConditionedWarning,
    NumericalError,
)
from augsill.solver import (
    GRAM_COND_LIMIT,
    KoopmanModel,
    adaptive_ridge,
    dmd_baseline,
    fit_k,
    frobenius_residual,
    load_model,
    n_step_error,
    predict_n_steps,
    ridge_lstsq,
    save_model,
)
from augsill.systems import (
    Mode,
    SnapshotDataset,
    SystemSpec,
    Trajectory,
    build_snapshot_dataset,
    integrate,
    simulate_ensemble,
)
from augsill.trainer import initial_dictionary, varpro_fit


def linear_pairs(A, dt, n=200, seed=0, scale=1.0):
    """Exact discrete pairs of xdot = A x sampled with step dt."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-scale, scale, (n, A.shape[0]))
    step = expm(A * dt)
    return SnapshotDataset(Mode.DISCRETE_PAIRS, x, x @ step.T, dt)


def small_dictionary(m=2):
    members = [
        ConjunctiveFunction(
            Kind.LOGISTIC,
            tuple(ScalarBasisParams(c, 1.5) for c in center),
        )
        for center in ([0.0] * m, [0.5] * m)
    ]
    return Dictionary.sill(members)


# -- fitting -------------------------------------------------------------------


def test_static_data_gives_identity():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (50, 2))
    ds = SnapshotDataset(Mode.DISCRETE_PAIRS, x, x, 0.1)
    model = fit_k(ds, small_dictionary(), ridge=0.0)
    np.testing.assert_allclose(model.K, np.eye(5), atol=1e-9)


def test_scalar_linear_oracle():
    # xdot = -x, dictionary [1, y]: fitted propagator entry is e^{-dt}
    A = np.array([[-1.0]])
    ds = linear_pairs(A, dt=0.1, n=100)
    model = fit_k(ds, Dictionary.linear(1), ridge=0.0)
    assert abs(model.K[1, 1] - 0.9048374180359595) < 1e-6


def test_planar_linear_oracle():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ds = linear_pairs(A, dt=0.05)
    model = fit_k(ds, Dictionary.linear(2), ridge=0.0)
    np.testing.assert_allclose(model.K[1:, 1:], expm(A * 0.05), atol=1e-6)


def test_continuous_mode_recovers_generator():
    # exact derivative targets: the fitted state block is A itself
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (100, 2))
    ds = SnapshotDataset(Mode.CONTINUOUS_DERIVATIVES, x, x @ A.T, 0.05)
    model = fit_k(ds, Dictionary.linear(2), ridge=0.0)
    np.testing.assert_allclose(model.K[1:, 1:], A, atol=1e-9)
    np.testing.assert_allclose(model.step_matrix()[1:, 1:], expm(A * 0.05),
                               atol=1e-9)


def test_ridge_monotone_residual():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ds = linear_pairs(A, dt=0.05, n=60)
    d = small_dictionary()
    res = [
        frobenius_residual(fit_k(ds, d, ridge=r), ds)
        for r in (0.0, 1e-6, 1e-3, 1e-1, 10.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(res, res[1:]))


def test_least_squares_optimality():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (80, 2))
    y = np.tanh(x) + 0.1 * rng.standard_normal((80, 2))
    ds = SnapshotDataset(Mode.DISCRETE_PAIRS, x, y, 0.1)
    model = fit_k(ds, small_dictionary(), ridge=0.0)
    base = frobenius_residual(model, ds)
    n = model.K.shape[0]
    for _ in range(20):
        i, j = rng.integers(0, n, 2)
        for sgn in (-1.0, 1.0):
            k2 = model.K.copy()
            k2[i, j] += sgn * 1e-3
            bumped = KoopmanModel(model.dictionary, k2, model.mode, model.dt)
            assert frobenius_residual(bumped, ds) >= base - 1e-12


def test_underdetermined_fit_warns():
    x = np.array([[0.1, 0.2], [0.3, -0.1]])
    ds = SnapshotDataset(Mode.DISCRETE_PAIRS, x, x, 0.1)
    with pytest.warns(IllConditionedWarning):
        fit_k(ds, small_dictionary(), ridge=0.0)


def test_fit_rejects_nonfinite_and_bad_ridge():
    x = np.array([[0.1, 0.2], [np.inf, 0.0], [0.5, 0.5]])
    ds = SnapshotDataset(Mode.DISCRETE_PAIRS, x, x, 0.1)
    with pytest.raises(DataError):
        fit_k(ds, Dictionary.linear(2))
    ok = SnapshotDataset(Mode.DISCRETE_PAIRS, np.zeros((3, 2)), np.zeros((3, 2)), 0.1)
    with pytest.raises(DomainError):
        fit_k(ok, Dictionary.linear(2), ridge=-1.0)
    for ridge in (np.nan, np.inf):
        with pytest.raises(DomainError, match="ridge must be finite"):
            fit_k(ok, Dictionary.linear(2), ridge=ridge)


# -- the ridge solve -----------------------------------------------------------------


def stacked_ridge_lstsq(a, b, ridge):
    """Reference ridge solve: SVD-backed lstsq over a with sqrt(ridge) I rows
    appended."""
    n = a.shape[1]
    a = np.vstack([a, np.sqrt(ridge) * np.eye(n)])
    b = np.vstack([b, np.zeros((n, b.shape[1]))])
    w, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return w, rank


def relative_gap(w, ref):
    return np.linalg.norm(w - ref) / np.linalg.norm(ref)


def test_gram_solve_matches_stacked_svd_on_random_lifts():
    # Column scales over twelve decades and a nearly repeated column: at the
    # adaptive ridge the Gram path runs and agrees with the reference.
    rng = np.random.default_rng(11)
    for r, n in ((40, 3), (300, 12), (2000, 23), (500, 100)):
        a = rng.standard_normal((r, n)) * np.logspace(-6, 6, n)
        a[:, -1] = a[:, 0] + 1e-9 * rng.standard_normal(r)
        b = rng.standard_normal((r, 4))
        ridge = adaptive_ridge(a)
        assert (np.trace(a.T @ a) + ridge) / ridge <= GRAM_COND_LIMIT
        w, rank = ridge_lstsq(a, b, ridge)
        ref, ref_rank = stacked_ridge_lstsq(a, b, ridge)
        assert rank == ref_rank == n
        assert relative_gap(w, ref) <= 1e-6, (r, n)


def test_gram_solve_matches_stacked_svd_on_trained_lifts():
    # The vanderpol augsill cell of the benchmark grid (N = 20), on its
    # initial dictionary and after 200 variable-projection iterations.
    trs = simulate_ensemble(SystemSpec.default("vanderpol"), 10, 0.05, 200, seed=0)
    ds = build_snapshot_dataset(trs, Mode.DISCRETE_PAIRS)
    trained, _ = varpro_fit(ds, "augsill", 20, 200, seed=0)
    for d in (initial_dictionary(ds, "augsill", 20), trained.dictionary):
        psi_in, psi_out = solver._lifted_pair(ds, d)
        ridge = adaptive_ridge(psi_in)
        w, rank = ridge_lstsq(psi_in, psi_out, ridge)
        ref, _ = stacked_ridge_lstsq(psi_in, psi_out, ridge)
        assert rank == psi_in.shape[1]
        assert relative_gap(w, ref) <= 1e-6


def test_ridge_below_the_guard_keeps_the_stacked_svd_bits():
    # Rank-deficient lifts, at a ridge too small to bound the conditioning.
    rng = np.random.default_rng(12)
    a = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 6))
    b = rng.standard_normal((30, 2))
    for ridge in (1e-300, 1e-30):
        assert (np.trace(a.T @ a) + ridge) / ridge > GRAM_COND_LIMIT
        w, rank = ridge_lstsq(a, b, ridge)
        ref, ref_rank = stacked_ridge_lstsq(a, b, ridge)
        assert w.tobytes() == ref.tobytes() and rank == ref_rank


def test_failed_svd_is_a_numerical_error():
    # lstsq's SVD does not converge on a design holding inf, at ridge 0 and on
    # the stacked path a ridge > 0 takes when the Gram trace is not finite.
    a = np.ones((5, 2))
    a[0, 0] = np.inf
    for ridge in (0.0, 1e-3):
        with pytest.raises(NumericalError, match="SVD did not converge"):
            ridge_lstsq(a, np.ones((5, 1)), ridge)


def test_failed_cholesky_falls_back_to_the_stacked_svd(monkeypatch):
    def fail(*args, **kwargs):
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(solver, "cho_factor", fail)
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal((50, 5)), rng.standard_normal((50, 5))
    w, rank = ridge_lstsq(a, b, 1e-3)
    ref, ref_rank = stacked_ridge_lstsq(a, b, 1e-3)
    assert w.tobytes() == ref.tobytes() and rank == ref_rank


# -- baseline --------------------------------------------------------------------


def test_dmd_recovers_linear_propagator():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ds = linear_pairs(A, dt=0.05)
    model = dmd_baseline(ds)
    np.testing.assert_allclose(model.K[1:, 1:], expm(A * 0.05), atol=1e-6)
    assert model.K[0, 0] == 1.0
    np.testing.assert_array_equal(model.K[0, 1:], 0.0)
    np.testing.assert_array_equal(model.K[1:, 0], 0.0)


def test_dmd_static_identity():
    x = np.random.default_rng(5).uniform(-1, 1, (30, 2))
    ds = SnapshotDataset(Mode.DISCRETE_PAIRS, x, x, 0.1)
    np.testing.assert_allclose(dmd_baseline(ds).K[1:, 1:], np.eye(2), atol=1e-10)


def test_dmd_needs_discrete_mode():
    x = np.zeros((5, 2))
    ds = SnapshotDataset(Mode.CONTINUOUS_DERIVATIVES, x, x, 0.1)
    with pytest.raises(DomainError):
        dmd_baseline(ds)


# -- prediction ---------------------------------------------------------------------


def test_predict_zero_steps():
    A = np.array([[-1.0]])
    model = fit_k(linear_pairs(A, 0.1, n=50), Dictionary.linear(1), ridge=0.0)
    out = predict_n_steps(model, np.array([0.7]), 0)
    np.testing.assert_array_equal(out, [[0.7]])
    with pytest.raises(DomainError):
        predict_n_steps(model, np.array([0.7]), -1)


def test_predict_scalar_decay():
    A = np.array([[-1.0]])
    model = fit_k(linear_pairs(A, 0.1, n=50), Dictionary.linear(1), ridge=0.0)
    out = predict_n_steps(model, np.array([1.0]), 5)
    assert abs(out[-1, 0] - np.exp(-0.5)) < 1e-5


def test_predict_static_model_constant():
    x = np.random.default_rng(6).uniform(-1, 1, (40, 2))
    ds = SnapshotDataset(Mode.DISCRETE_PAIRS, x, x, 0.1)
    model = fit_k(ds, small_dictionary(), ridge=0.0)
    out = predict_n_steps(model, np.array([0.2, -0.4]), 4)
    np.testing.assert_allclose(out, np.tile([0.2, -0.4], (5, 1)), atol=1e-8)


def test_n_step_error_exact_linear():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dt = 0.05
    model = fit_k(linear_pairs(A, dt), Dictionary.linear(2), ridge=0.0)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1, 1, 2)
    steps = 30
    states = np.stack([expm(A * dt * k) @ x0 for k in range(steps + 1)])
    tr = Trajectory(dt=dt, states=states, system=SystemSpec.default("vanderpol"))
    assert n_step_error(model, [tr], 5) < 1e-6


def test_n_step_error_identity_on_constant():
    d = Dictionary.linear(2)
    model = KoopmanModel(d, np.eye(3), Mode.DISCRETE_PAIRS, 0.1)
    states = np.tile([0.3, 0.9], (8, 1))
    tr = Trajectory(dt=0.1, states=states, system=SystemSpec.default("vanderpol"))
    assert n_step_error(model, [tr], 3) == 0.0


def test_n_step_error_windows():
    d = Dictionary.linear(2)
    model = KoopmanModel(d, np.eye(3), Mode.DISCRETE_PAIRS, 0.1)
    short = Trajectory(dt=0.1, states=np.zeros((3, 2)),
                       system=SystemSpec.default("vanderpol"))
    with pytest.raises(EvaluationWindowError, match="^no trajectory offers a window of 5 steps$"):
        n_step_error(model, [short], 5)
    with pytest.raises(DomainError):
        n_step_error(model, [short], 0)


def test_n_step_error_deterministic():
    tr = integrate(SystemSpec.default("vanderpol"), np.array([1.0, 0.5]),
                   dt=0.1, steps=20)
    ds = SnapshotDataset(Mode.DISCRETE_PAIRS, tr.states[:-1], tr.states[1:], 0.1)
    model = fit_k(ds, small_dictionary())
    a = n_step_error(model, [tr], 5)
    b = n_step_error(model, [tr], 5)
    assert a == b


# -- model files -----------------------------------------------------------------------


def test_model_roundtrip(tmp_path):
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ds = linear_pairs(A, dt=0.05, n=80)
    model = fit_k(ds, small_dictionary(), ridge=1e-10)
    path = tmp_path / "model.ini"
    save_model(model, path)
    assert (tmp_path / "model.k.csv").exists()
    back = load_model(path)
    np.testing.assert_array_equal(back.K, model.K)
    assert back.mode == model.mode and back.dt == model.dt
    assert back.dictionary.members == model.dictionary.members
    y0 = np.array([0.3, 0.1])
    np.testing.assert_array_equal(
        predict_n_steps(back, y0, 4), predict_n_steps(model, y0, 4)
    )


def test_model_validates_k_shape():
    with pytest.raises(DomainError):
        KoopmanModel(Dictionary.linear(2), np.eye(4), Mode.DISCRETE_PAIRS, 0.1)
