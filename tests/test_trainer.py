import numpy as np
import pytest

from augsill.dictionaries import (
    ConjunctiveFunction,
    Dictionary,
    Family,
    Kind,
    ScalarBasisParams,
    lift_many,
    polynomial_multi_indices,
    stable_logistic,
)
from augsill.errors import (
    DataError,
    DomainError,
    ParameterDomainError,
    PoolError,
    TrainingDivergedError,
)
from augsill.solver import dmd_baseline, fit_k, frobenius_residual, n_step_error
from augsill.systems import (
    Mode,
    SnapshotDataset,
    SystemSpec,
    build_snapshot_dataset,
    simulate_ensemble,
)
from augsill.trainer import (
    PursuitPool,
    TrainConfig,
    initial_dictionary,
    matching_pursuit_fit,
    objective_and_gradient,
    sgd_fit,
)


def vdp_dataset(n_traj=6, steps=40, seed=0):
    trs = simulate_ensemble(SystemSpec.default("vanderpol"), n_traj,
                            dt=0.05, steps=steps, seed=seed)
    return build_snapshot_dataset(trs, Mode.DISCRETE_PAIRS)


def static_dataset(n=40, m=2, seed=1):
    x = np.random.default_rng(seed).uniform(-1, 1, (n, m))
    return SnapshotDataset(Mode.DISCRETE_PAIRS, x, x, 0.1)


# -- objective -----------------------------------------------------------------


def test_objective_zero_for_perfect_model():
    ds = static_dataset()
    model = fit_k(ds, initial_dictionary(ds, Family.SILL, 3, seed=0), ridge=0.0)
    loss, grads = objective_and_gradient(model, ds)
    assert loss < 1e-20
    assert np.abs(grads.d_k).max() < 1e-10
    assert np.abs(grads.d_center).max() < 1e-9
    assert np.abs(grads.d_steepness).max() < 1e-9


def test_objective_matches_solver_residual():
    ds = vdp_dataset()
    for family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF, Family.LEGENDRE):
        d = initial_dictionary(ds, family, 5, seed=3)
        model = fit_k(ds, d)
        loss, _ = objective_and_gradient(model, ds)
        assert abs(loss - frobenius_residual(model, ds) / ds.n_rows) < 1e-10


def test_objective_requires_discrete_pairs():
    x = np.zeros((5, 2))
    ds = SnapshotDataset(Mode.CONTINUOUS_DERIVATIVES, x, x, 0.1)
    model = fit_k(static_dataset(), Dictionary.linear(2), ridge=0.0)
    with pytest.raises(DomainError):
        objective_and_gradient(model, ds)


def test_objective_gradients_match_finite_differences():
    # 5-sample batch, all parameter blocks, relative tolerance 1e-4
    rng = np.random.default_rng(13)
    full = vdp_dataset()
    batch = SnapshotDataset(Mode.DISCRETE_PAIRS, full.inputs[:5], full.targets[:5],
                            full.dt)
    for family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF):
        d = initial_dictionary(full, family, 4, seed=5)
        model = fit_k(full, d)
        loss, g = objective_and_gradient(model, batch)
        h = 1e-6

        def loss_with(dict_override=None, k_override=None):
            m2 = fit_k(full, d)  # fresh model, then overwrite pieces
            if dict_override is not None:
                m2.dictionary = dict_override
            if k_override is not None:
                m2.K = k_override
            m2.K = m2.K if k_override is None else k_override
            return objective_and_gradient(m2, batch)[0]

        # K entries (spot check a few)
        for _ in range(5):
            i, j = rng.integers(0, model.K.shape[0], 2)
            kp, km = model.K.copy(), model.K.copy()
            kp[i, j] += h
            km[i, j] -= h
            num = (loss_with(k_override=kp) - loss_with(k_override=km)) / (2 * h)
            denom = max(abs(g.d_k[i, j]), 1e-8)
            assert abs(g.d_k[i, j] - num) / denom < 1e-4

        # shape parameters
        def rebuild(centers, steeps):
            if family == Family.SUMMED_RBF:
                ms = [tuple(ScalarBasisParams(c, s) for c, s in zip(cr, sr))
                      for cr, sr in zip(centers, steeps)]
                return Dictionary.summed_rbf(ms, full.m)
            ms = []
            for idx, f in enumerate(d.members):
                ms.append(ConjunctiveFunction(
                    f.kind,
                    tuple(ScalarBasisParams(c, s)
                          for c, s in zip(centers[idx], steeps[idx])),
                ))
            return Dictionary(family, full.m, tuple(ms))

        c0, a0 = d.centers, d.steepness
        for _ in range(6):
            jj = int(rng.integers(0, 4))
            ii = int(rng.integers(0, full.m))
            for which, grad in (("c", g.d_center), ("a", g.d_steepness)):
                cp, cm = c0.copy(), c0.copy()
                ap, am = a0.copy(), a0.copy()
                if which == "c":
                    cp[jj, ii] += h
                    cm[jj, ii] -= h
                else:
                    ap[jj, ii] += h
                    am[jj, ii] -= h
                num = (
                    loss_with(dict_override=rebuild(cp, ap))
                    - loss_with(dict_override=rebuild(cm, am))
                ) / (2 * h)
                denom = max(abs(grad[jj, ii]), 1e-8)
                assert abs(grad[jj, ii] - num) / denom < 1e-4


# -- sgd --------------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ParameterDomainError):
        TrainConfig(epochs=0)
    with pytest.raises(ParameterDomainError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ParameterDomainError):
        TrainConfig(lr_decay=0.0)
    with pytest.raises(ParameterDomainError):
        TrainConfig(lr_decay=1.5)


def test_sgd_static_data_stays_at_zero():
    ds = static_dataset()
    cfg = TrainConfig(epochs=5, seed=2, ridge=0.0)
    model, history = sgd_fit(ds, Family.SILL, 3, cfg)
    assert all(h < 1e-18 for h in history)
    loss, _ = objective_and_gradient(model, ds)
    assert loss < 1e-18


def test_sgd_deterministic():
    ds = vdp_dataset()
    cfg = TrainConfig(epochs=8, seed=4)
    m1, h1 = sgd_fit(ds, Family.AUGSILL, 4, cfg)
    m2, h2 = sgd_fit(ds, Family.AUGSILL, 4, cfg)
    assert h1 == h2
    np.testing.assert_array_equal(m1.K, m2.K)
    assert m1.dictionary.members == m2.dictionary.members


def test_sgd_loss_decreases_on_all_systems():
    # first 50 epochs with otherwise-default config, seed 0; coarse sampling so
    # the one-step map is nonlinear enough for center motion to matter
    for name in ("vanderpol", "duffing", "predatorprey", "toggleswitch"):
        trs = simulate_ensemble(SystemSpec.default(name), 100, dt=1.0,
                                steps=8, seed=0)
        ds = build_snapshot_dataset(trs, Mode.DISCRETE_PAIRS)
        _, history = sgd_fit(ds, Family.AUGSILL, 6, TrainConfig(epochs=50, seed=0))
        assert history[-1] <= 0.9 * history[0], name


def test_sgd_tiny_lr_matches_initial_dictionary():
    # a step of size 1e-30 cannot move O(1) parameters in float64
    ds = vdp_dataset()
    cfg = TrainConfig(epochs=1, seed=6, learning_rate=1e-30)
    model, _ = sgd_fit(ds, Family.AUGSILL, 5, cfg)
    d0 = initial_dictionary(ds, Family.AUGSILL, 5, seed=6)
    assert model.dictionary.members == d0.members


def test_initial_dictionary_layout():
    ds = vdp_dataset()
    d = initial_dictionary(ds, Family.AUGSILL, 5, seed=0)
    assert d.n_logistic == 3 and d.n_rbf == 2
    kinds = [f.kind for f in d.members]
    assert kinds == [Kind.LOGISTIC] * 3 + [Kind.RBF] * 2
    lo = ds.inputs.min(axis=0)
    hi = ds.inputs.max(axis=0)
    for f in d.members:
        assert np.all(f.centers >= lo) and np.all(f.centers <= hi)
        assert np.all(f.steepnesses >= 0.5) and np.all(f.steepnesses <= 3.0)
    dp = initial_dictionary(ds, Family.LEGENDRE, 4)
    assert dp.members == ((0, 2), (1, 1), (2, 0), (0, 3))


def test_sgd_polynomial_family_is_closed_form():
    ds = vdp_dataset()
    model, history = sgd_fit(ds, Family.LEGENDRE, 4, TrainConfig(epochs=7, seed=0))
    direct = fit_k(ds, initial_dictionary(ds, Family.LEGENDRE, 4))
    np.testing.assert_array_equal(model.K, direct.K)
    assert len(set(history)) == 1 and len(history) == 7


def _descend_k_reference(ds, family, n_members, cfg):
    """The former K-only SGD loop for a fixed polynomial dictionary, kept as
    the reference for sgd_fit with descend_k on a polynomial family."""
    rng = np.random.default_rng(cfg.seed)
    d = Dictionary(family, ds.m, polynomial_multi_indices(ds.m, n_members))
    k = fit_k(ds, d, cfg.ridge).K
    psi_in = lift_many(d, ds.inputs)
    psi_out = lift_many(d, ds.targets)
    r = ds.n_rows
    lr = cfg.learning_rate
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(r)
        for start in range(0, r, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            res = psi_out[idx] - psi_in[idx] @ k.T
            k -= lr * (-2.0 / len(idx)) * (res.T @ psi_in[idx])
        if (epoch + 1) % cfg.refit_k_every == 0:
            k = fit_k(ds, d, cfg.ridge).K
        res = psi_out - psi_in @ k.T
        history.append(float(np.sum(res * res)) / r)
        lr *= cfg.lr_decay
    return k, history


def test_sgd_polynomial_descend_k_matches_reference():
    # 240 rows in batches of 32 leave a last batch of 16: with power-of-two
    # batch sizes, (lr * -2/b) * G and lr * (-2/b * G) round identically.
    ds = vdp_dataset()
    assert ds.n_rows == 240
    cfg = TrainConfig(epochs=12, seed=3, learning_rate=1e-4, refit_k_every=5,
                      descend_k=True)
    model, history = sgd_fit(ds, Family.LEGENDRE, 6, cfg)
    k_ref, history_ref = _descend_k_reference(ds, Family.LEGENDRE, 6, cfg)
    assert model.K.tobytes() == k_ref.tobytes()
    assert history == history_ref
    # the last two epochs follow the epoch-10 refit, so K has really moved
    assert not np.array_equal(model.K, fit_k(ds, model.dictionary).K)


def test_sgd_returns_refit_k():
    # with epochs a multiple of refit_k_every, the returned K is the
    # closed-form fit over the returned dictionary, bit for bit
    ds = vdp_dataset()
    cfg = TrainConfig(epochs=10, seed=1, refit_k_every=5)
    for family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF):
        model, _ = sgd_fit(ds, family, 5, cfg)
        direct = fit_k(ds, model.dictionary, cfg.ridge)
        assert model.K.tobytes() == direct.K.tobytes(), family


def test_sgd_rejects_non_finite_data():
    ds = vdp_dataset(n_traj=2, steps=10)
    x = ds.inputs.copy()
    x[3, 1] = np.nan
    bad = SnapshotDataset(Mode.DISCRETE_PAIRS, x, ds.targets, ds.dt)
    for family in (Family.SILL, Family.LEGENDRE):
        with pytest.raises(DataError):
            sgd_fit(bad, family, 3, TrainConfig(epochs=2))
        with pytest.raises(DataError):
            initial_dictionary(bad, family, 3)


def test_sgd_epoch_callback_cadence():
    ds = vdp_dataset(n_traj=2, steps=20)
    seen = []
    sgd_fit(ds, Family.SILL, 2, TrainConfig(epochs=6, seed=0),
            epoch_callback=lambda e, loss, model: seen.append((e, loss)))
    assert [e for e, _ in seen] == list(range(6))
    assert all(np.isfinite(loss) for _, loss in seen)


def test_sgd_divergence_raises():
    ds = vdp_dataset(n_traj=2, steps=20)
    cfg = TrainConfig(epochs=3, seed=0, learning_rate=1e6, descend_k=True)
    with pytest.raises(TrainingDivergedError):
        with np.errstate(all="ignore"):
            sgd_fit(ds, Family.SILL, 2, cfg)
    # Unregularized summedrbf on the toggle switch: a steepness underflows to
    # 0.0 by epoch 20 while the loss is still finite.
    trs = simulate_ensemble(SystemSpec.default("toggleswitch"), 10, dt=0.05,
                            steps=200, seed=0)
    ds = build_snapshot_dataset(trs, Mode.DISCRETE_PAIRS)
    cfg = TrainConfig(epochs=25, seed=0, ridge=0.0)
    for callback in (None, lambda epoch, loss, model: None):
        with pytest.raises(TrainingDivergedError):
            with np.errstate(all="ignore"):
                sgd_fit(ds, Family.SUMMED_RBF, 20, cfg, epoch_callback=callback)


def test_sgd_rejects_bad_inputs():
    ds = vdp_dataset(n_traj=2, steps=10)
    with pytest.raises(DomainError):
        sgd_fit(ds, Family.SILL, 0)
    cont = SnapshotDataset(Mode.CONTINUOUS_DERIVATIVES, ds.inputs, ds.targets, ds.dt)
    with pytest.raises(DomainError):
        sgd_fit(cont, Family.SILL, 2)


def test_sgd_beats_dmd_on_toggle_switch():
    trs = simulate_ensemble(SystemSpec.default("toggleswitch"), 6, dt=0.05,
                            steps=120, seed=0)
    ds = build_snapshot_dataset(trs, Mode.DISCRETE_PAIRS)
    model, _ = sgd_fit(ds, Family.AUGSILL, 20, TrainConfig(epochs=500, seed=0))
    holdout = simulate_ensemble(SystemSpec.default("toggleswitch"), 4, dt=0.05,
                                steps=120, seed=1)
    ours = n_step_error(model, holdout, 5)
    base = n_step_error(dmd_baseline(ds), holdout, 5)
    assert ours < base


# -- matching pursuit ---------------------------------------------------------------


def test_pool_size_and_order():
    pool = PursuitPool(kinds=(Kind.LOGISTIC, Kind.RBF),
                       center_grids=(np.array([-1.0, 0.0, 1.0]),),
                       steepness_levels=(1.0, 5.0))
    assert pool.size == 12
    cands = pool.candidates()
    assert len(cands) == 12
    assert cands[0].kind == Kind.LOGISTIC and cands[6].kind == Kind.RBF
    # kind-major, then lattice point, then steepness
    assert cands[3].params[0].center == 0.0
    assert cands[3].params[0].steepness == 5.0


def test_pool_for_data_spans_range():
    x = np.array([[0.0, -2.0], [4.0, 2.0]])
    pool = PursuitPool.for_data(x, points_per_dim=5)
    assert pool.center_grids[0][0] == 0.0 and pool.center_grids[0][-1] == 4.0
    assert pool.center_grids[1][0] == -2.0 and pool.center_grids[1][-1] == 2.0
    assert pool.size == 2 * 5 * 5 * 3


def test_pool_validation():
    with pytest.raises(PoolError):
        PursuitPool(kinds=(), center_grids=(np.array([0.0]),),
                    steepness_levels=(1.0,))
    with pytest.raises(PoolError):
        PursuitPool(kinds=(Kind.RBF,), center_grids=(np.array([0.0]),),
                    steepness_levels=(-1.0,))
    with pytest.raises(PoolError):
        PursuitPool(kinds=(Kind.RBF,), center_grids=(np.array([]),),
                    steepness_levels=(1.0,))


def test_pursuit_zero_members_is_linear_model():
    ds = vdp_dataset(n_traj=2, steps=20)
    pool = PursuitPool.for_data(ds.inputs, points_per_dim=3)
    model, trace = matching_pursuit_fit(ds, pool, 0)
    assert trace == []
    assert model.dictionary.n_members == 0
    assert model.K.shape == (3, 3)


def test_pursuit_recovers_planted_member():
    # scalar decay driven by one logistic; the pool contains it exactly
    rng = np.random.default_rng(21)
    y = rng.uniform(-2.0, 2.0, (400, 1))
    dy = -stable_logistic(5.0 * y)
    ds = SnapshotDataset(Mode.CONTINUOUS_DERIVATIVES, y, dy, 0.05)
    pool = PursuitPool(kinds=(Kind.LOGISTIC, Kind.RBF),
                       center_grids=(np.array([-1.0, 0.0, 1.0]),),
                       steepness_levels=(1.0, 5.0))
    model, trace = matching_pursuit_fit(ds, pool, 1)
    member = model.dictionary.members[0]
    assert member.kind == Kind.LOGISTIC
    assert member.params[0].center == 0.0
    assert member.params[0].steepness == 5.0
    assert trace[0] < 1e-20


def test_pursuit_trace_monotone():
    for name in ("vanderpol", "predatorprey"):
        trs = simulate_ensemble(SystemSpec.default(name), 4, dt=0.05,
                                steps=40, seed=3)
        ds = build_snapshot_dataset(trs, Mode.DISCRETE_PAIRS)
        pool = PursuitPool.for_data(ds.inputs, points_per_dim=4,
                                    steepness_levels=(1.0, 3.0))
        _, trace = matching_pursuit_fit(ds, pool, 6)
        assert len(trace) == 6
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-12


def test_pursuit_kind_split_into_family():
    ds = vdp_dataset(n_traj=2, steps=30)
    pool = PursuitPool.for_data(ds.inputs, points_per_dim=3,
                                steepness_levels=(2.0,))
    model, _ = matching_pursuit_fit(ds, pool, 4)
    d = model.dictionary
    assert d.family in (Family.SILL, Family.AUGSILL)
    kinds = [f.kind for f in d.members]
    assert kinds == sorted(kinds, key=lambda k: 0 if k == Kind.LOGISTIC else 1)


def test_pursuit_errors():
    ds = vdp_dataset(n_traj=2, steps=10)
    small = PursuitPool(kinds=(Kind.LOGISTIC,),
                        center_grids=(np.array([0.0]), np.array([0.0])),
                        steepness_levels=(1.0,))
    with pytest.raises(PoolError):
        matching_pursuit_fit(ds, small, 2)
    wrong_dim = PursuitPool(kinds=(Kind.LOGISTIC,),
                            center_grids=(np.array([0.0, 1.0]),),
                            steepness_levels=(1.0,))
    with pytest.raises(PoolError):
        matching_pursuit_fit(ds, wrong_dim, 1)
    ok = PursuitPool.for_data(ds.inputs, points_per_dim=2)
    with pytest.raises(DomainError):
        matching_pursuit_fit(ds, ok, 1, ridge=-0.5)
