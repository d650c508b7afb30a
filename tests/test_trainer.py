import numpy as np
import pytest

from augsill.dictionaries import (
    ConjunctiveFunction,
    Dictionary,
    Family,
    Kind,
    ScalarBasisParams,
    assemble_lift,
    member_sensitivities_packed,
    member_values_packed,
    stable_logistic,
)
from augsill.errors import (
    DataError,
    DomainError,
    ParameterDomainError,
    PoolError,
    TrainingDivergedError,
    UnsupportedFamilyError,
)
from augsill.solver import (
    dmd_baseline,
    fit_k,
    frobenius_residual,
    n_step_error,
    ridge_lstsq,
    solve_k,
)
from augsill.systems import (
    Mode,
    SnapshotDataset,
    SystemSpec,
    build_snapshot_dataset,
    simulate_ensemble,
)
from augsill import trainer
from augsill.trainer import (
    LR_DECAY,
    REFIT_K_EVERY,
    PursuitPool,
    TrainConfig,
    _VarproObjective,
    _init_shape_params,
    _shape_grads_packed,
    initial_dictionary,
    matching_pursuit_fit,
    objective_and_gradient,
    sgd_fit,
    varpro_fit,
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


def test_sgd_rejects_polynomial_families():
    # Fixed polynomial dictionaries have nothing to train: fit_k fits them.
    ds = vdp_dataset(n_traj=2, steps=10)
    for family in (Family.LEGENDRE, Family.HERMITE):
        with pytest.raises(UnsupportedFamilyError):
            sgd_fit(ds, family, 4, TrainConfig(epochs=2))


def test_sgd_returns_refit_k():
    # with epochs a multiple of REFIT_K_EVERY, the returned K is the
    # closed-form fit over the returned dictionary, bit for bit
    ds = vdp_dataset()
    cfg = TrainConfig(epochs=10, seed=1)
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


def _two_call_shape_grads(family, c, a, rbf, k, x_in, x_out):
    """Reference: the shape gradients from one kernel call on the inputs and
    one on the targets, contracted in the (rows, N, m) layout."""
    b, m = x_in.shape
    v_in, s_in = member_sensitivities_packed(family, c, a, rbf, x_in)
    v_out, s_out = member_sensitivities_packed(family, c, a, rbf, x_out)
    s_in, s_out = (np.ascontiguousarray(np.moveaxis(s, 0, -1)) for s in (s_in, s_out))
    res = assemble_lift(x_out, v_out) - assemble_lift(x_in, v_in) @ k.T
    res_nl = res[:, 1 + m :]
    back_nl = (res @ k)[:, 1 + m :]
    g_center = (2.0 / b) * (
        np.einsum("tj,tji->ji", res_nl, -a[None] * s_out)
        - np.einsum("tj,tji->ji", back_nl, -a[None] * s_in)
    )
    g_steep = (2.0 / b) * (
        np.einsum("tj,tji->ji", res_nl, (x_out[:, None, :] - c[None]) * s_out)
        - np.einsum("tj,tji->ji", back_nl, (x_in[:, None, :] - c[None]) * s_in)
    )
    return g_center, g_steep


def _pairwise_sgd(dataset, family, n_members, cfg):
    """Reference: the SGD loop with two kernel calls per minibatch and the
    inputs and targets lifted separately every epoch. Returns (K, history,
    centers, steepness)."""
    x_in, x_out = dataset.inputs, dataset.targets
    rng = np.random.default_rng(cfg.seed)
    centers, log_steep, rbf = _init_shape_params(dataset, family, n_members, rng)

    def lifted_pair():
        steep = np.exp(log_steep)
        return tuple(assemble_lift(x, member_values_packed(family, centers, steep, rbf, x))
                     for x in (x_in, x_out))

    psi_in, psi_out = lifted_pair()
    k = solve_k(psi_in, psi_out, cfg.ridge)
    lr, history = cfg.learning_rate, []
    for epoch in range(cfg.epochs):
        order = rng.permutation(dataset.n_rows)
        for start in range(0, dataset.n_rows, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            steep = np.exp(log_steep)
            g_c, g_a = _two_call_shape_grads(family, centers, steep, rbf, k,
                                             x_in[idx], x_out[idx])
            centers -= lr * g_c
            log_steep -= lr * (g_a * steep)
        psi_in, psi_out = lifted_pair()
        if (epoch + 1) % REFIT_K_EVERY == 0:
            k = solve_k(psi_in, psi_out, cfg.ridge)
        res = psi_out - psi_in @ k.T
        history.append(float(np.sum(res * res)) / len(res))
        lr *= LR_DECAY
    return k, history, centers, np.exp(log_steep)


def test_sgd_matches_pairwise_reference():
    # Trajectory pairs: the targets are mostly the inputs one step on.
    trajectory = vdp_dataset(n_traj=3, steps=30)
    # Pairs whose targets share no row with the inputs.
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, (70, 2))
    disjoint = SnapshotDataset(Mode.DISCRETE_PAIRS, x, 0.9 * x + 0.05 * np.sin(3.0 * x), 0.1)
    assert not (disjoint.inputs[:, None, :] == disjoint.targets[None]).all(axis=2).any()
    # Repeated rows, and 0.0 and -0.0 in the same coordinate.
    y = np.repeat(rng.uniform(-1.0, 1.0, (20, 2)), 3, axis=0)
    y[::4, 0] = 0.0
    y[1::4, 0] = -0.0
    repeated = SnapshotDataset(Mode.DISCRETE_PAIRS, y, np.roll(y, 5, axis=0) * 0.8, 0.1)
    cfg = TrainConfig(epochs=2 * REFIT_K_EVERY + 1, batch_size=16, learning_rate=0.05, seed=3)
    for ds in (trajectory, disjoint, repeated):
        for family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF):
            model, history = sgd_fit(ds, family, 5, cfg)
            k, ref_history, centers, steep = _pairwise_sgd(ds, family, 5, cfg)
            assert history == ref_history, family
            assert model.K.tobytes() == k.tobytes(), family
            assert model.dictionary.centers.tobytes() == centers.tobytes(), family
            assert model.dictionary.steepness.tobytes() == steep.tobytes(), family


def test_sgd_epoch_callback_cadence():
    ds = vdp_dataset(n_traj=2, steps=20)
    seen = []
    sgd_fit(ds, Family.SILL, 2, TrainConfig(epochs=6, seed=0),
            epoch_callback=lambda e, loss, model: seen.append((e, loss)))
    assert [e for e, _ in seen] == list(range(6))
    assert all(np.isfinite(loss) for _, loss in seen)


def test_sgd_divergence_raises():
    ds = vdp_dataset(n_traj=2, steps=20)
    cfg = TrainConfig(epochs=3, seed=0, learning_rate=1e6)
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


# -- variable projection --------------------------------------------------------


def varpro_objective(ds, family, n_members, ridge, seed=5):
    """The objective varpro_fit minimises, and its starting point."""
    centers, log_steep, rbf = _init_shape_params(ds, family, n_members,
                                                 np.random.default_rng(seed))
    theta0 = np.concatenate([centers.T.ravel(), log_steep.T.ravel()])
    return _VarproObjective(ds, family, rbf, ridge, theta0), theta0


def test_varpro_gradient_matches_finite_differences():
    # Every parameter of the normalised objective, central differences.
    ds = vdp_dataset()
    h = 1e-5
    for ridge in (0.0, 1e-3):
        for family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF):
            objective, theta0 = varpro_objective(ds, family, 4, ridge)
            loss, grad = objective(theta0)
            assert loss == 1.0
            num = np.array([(objective(theta0 + h * e)[0] - objective(theta0 - h * e)[0])
                            / (2 * h) for e in np.eye(len(theta0))])
            assert np.linalg.norm(grad - num) <= 2e-8 * np.linalg.norm(grad), (ridge, family)


def test_lifted_objective_matches_full_data_shape_grads():
    # One kernel call on the distinct states gives the full-data gradients,
    # and K is the closed-form fit over the same dictionary, bit for bit.
    ds = vdp_dataset()
    x = np.hstack([ds.inputs.T, ds.targets.T])
    for ridge in (None, 0.0, 1e-3):
        for family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF):
            objective, theta0 = varpro_objective(ds, family, 5, ridge)
            c, u = theta0.reshape(2, ds.m, 5)
            a = np.exp(u)
            rbf = objective.rbf
            loss, g_c, g_a, k, used = objective.lifted_objective(c, a)
            ref_c, ref_a = _shape_grads_packed(family, c, a, rbf, k, x)
            assert np.linalg.norm(g_c - ref_c) <= 1e-12 * np.linalg.norm(ref_c)
            assert np.linalg.norm(g_a - ref_a) <= 1e-12 * np.linalg.norm(ref_a)
            model = fit_k(ds, Dictionary.from_packed(family, c.T, a.T, rbf), ridge)
            assert k.tobytes() == model.K.tobytes(), (ridge, family)
            data = frobenius_residual(model, ds)
            assert loss == pytest.approx((data + used * np.sum(k * k)) / ds.n_rows,
                                         rel=1e-12)
            assert used == (ridge if ridge is not None else objective.ridge)


def test_varpro_deterministic():
    ds = vdp_dataset()
    for family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF):
        m1, h1 = varpro_fit(ds, family, 4, 40, seed=4)
        m2, h2 = varpro_fit(ds, family, 4, 40, seed=4)
        assert h1 == h2
        assert m1.K.tobytes() == m2.K.tobytes()
        assert m1.dictionary.centers.tobytes() == m2.dictionary.centers.tobytes()
        assert m1.dictionary.steepness.tobytes() == m2.dictionary.steepness.tobytes()


def test_varpro_descends_within_the_cap():
    ds = vdp_dataset()
    d0 = initial_dictionary(ds, Family.AUGSILL, 5, seed=2)
    loss0 = frobenius_residual(fit_k(ds, d0), ds) / ds.n_rows
    model, history = varpro_fit(ds, Family.AUGSILL, 5, 30, seed=2)
    assert 1 <= len(history) <= 30
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert history[-1] < 0.9 * loss0
    # The returned K is the one solved at the frozen ridge of the initial lift.
    k = model.K
    objective, _ = varpro_objective(ds, Family.AUGSILL, 5, None, seed=2)
    refit = fit_k(ds, model.dictionary, objective.ridge)
    assert k.tobytes() == refit.K.tobytes()


def test_varpro_static_data_keeps_round_off_residual():
    # Targets equal inputs, so the identity block of K fits them and the
    # iterations can only lower the ridge term; the data residual stays at
    # round-off.
    ds = static_dataset()
    model, history = varpro_fit(ds, Family.SILL, 3, 5, seed=2)
    assert len(history) >= 1
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert objective_and_gradient(model, ds)[0] < 1e-12


def test_varpro_rejects_bad_inputs():
    ds = vdp_dataset(n_traj=2, steps=10)
    for bad_args in ((Family.SILL, 0), (Family.SILL, 2, 0)):
        with pytest.raises(DomainError):
            varpro_fit(ds, *bad_args)
    cont = SnapshotDataset(Mode.CONTINUOUS_DERIVATIVES, ds.inputs, ds.targets, ds.dt)
    with pytest.raises(DomainError):
        varpro_fit(cont, Family.SILL, 2)
    for family in (Family.LEGENDRE, Family.HERMITE):
        with pytest.raises(UnsupportedFamilyError):
            varpro_fit(ds, family, 4, 2)
    x = ds.inputs.copy()
    x[3, 1] = np.nan
    with pytest.raises(DataError):
        varpro_fit(SnapshotDataset(Mode.DISCRETE_PAIRS, x, ds.targets, ds.dt),
                   Family.SILL, 3, 2)


def test_varpro_non_finite_evaluation_raises(monkeypatch):
    ds = vdp_dataset(n_traj=2, steps=20)
    objective, theta0 = varpro_objective(ds, Family.AUGSILL, 3, None)
    # A non-finite parameter, or a log-steepness whose exp overflows.
    for bad in (np.inf, np.nan, 1e6):
        theta = theta0.copy()
        theta[-1] = bad
        with pytest.raises(TrainingDivergedError):
            with np.errstate(all="ignore"):
                objective(theta)
    # Member values that are not finite never reach lstsq.
    c, u = theta0.reshape(2, ds.m, 3)
    with pytest.raises(TrainingDivergedError):
        objective.lifted_objective(np.full_like(c, np.nan), np.exp(u))
    # Member values that turn non-finite mid-run end the fit as a divergence.
    kernel, calls = trainer.member_sensitivities_packed, []

    def failing(*args):
        calls.append(1)
        vals, s = kernel(*args)
        return (vals * np.nan if len(calls) > 4 else vals), s

    monkeypatch.setattr(trainer, "member_sensitivities_packed", failing)
    with pytest.raises(TrainingDivergedError) as info:
        varpro_fit(ds, Family.AUGSILL, 3, 50, seed=0)
    assert info.value.last_finite_epoch is not None


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


def test_pool_for_data_rejects_empty_lattice():
    x = np.array([[0.0, -2.0], [4.0, 2.0]])
    for n in (0, -1, -9):
        with pytest.raises(DomainError):
            PursuitPool.for_data(x, points_per_dim=n)


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
    for level in (np.nan, np.inf):
        with pytest.raises(PoolError):
            PursuitPool(kinds=(Kind.RBF,), center_grids=(np.array([0.0]),),
                        steepness_levels=(1.0, level))


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


def _direct_pursuit(dataset, pool, n_members, ridge):
    """Reference: the per-candidate loop, one direct ridge_lstsq solve per
    remaining candidate per round. Returns (model, trace, chosen)."""
    c, a, rbf = pool.packed()
    x = dataset.inputs
    first = np.ones if dataset.mode == Mode.DISCRETE_PAIRS else np.zeros
    targets = np.hstack([first((dataset.n_rows, 1)), dataset.targets])
    cand_cols = np.empty((dataset.n_rows, pool.size))
    for j in range(pool.size):
        cand_cols[:, j] = member_values_packed(
            Family.AUGSILL, c[j : j + 1], a[j : j + 1], rbf[j : j + 1], x
        )[:, 0]
    design = np.hstack([np.ones((dataset.n_rows, 1)), x])
    chosen, trace, remaining = [], [], list(range(pool.size))
    for _ in range(n_members):
        best_idx, best_res = None, np.inf
        trial = np.empty((dataset.n_rows, design.shape[1] + 1))
        trial[:, :-1] = design
        for idx in remaining:
            trial[:, -1] = cand_cols[:, idx]
            w, _ = ridge_lstsq(trial, targets, ridge)
            res = float(np.sum((targets - trial @ w) ** 2))
            if res < best_res:
                best_res, best_idx = res, idx
        chosen.append(best_idx)
        remaining.remove(best_idx)
        design = np.hstack([design, cand_cols[:, best_idx : best_idx + 1]])
        trace.append(best_res)
    keep = sorted(chosen, key=lambda i: rbf[i])
    family = Family.AUGSILL if rbf[keep].any() else Family.SILL
    d = Dictionary.from_packed(family, c[keep], a[keep], rbf[keep])
    return fit_k(dataset, d, ridge), trace, chosen


def test_pursuit_matches_direct_scoring():
    trs = simulate_ensemble(SystemSpec.default("vanderpol"), 4, dt=0.05,
                            steps=40, seed=3)
    discrete = build_snapshot_dataset(trs, Mode.DISCRETE_PAIRS)
    continuous = build_snapshot_dataset(trs, Mode.CONTINUOUS_DERIVATIVES)
    pool = PursuitPool.for_data(discrete.inputs, points_per_dim=4,
                                steepness_levels=(1.0, 3.0))
    # repeated steepness level: every candidate has an exact twin to tie with
    twins = PursuitPool.for_data(discrete.inputs, points_per_dim=3,
                                 steepness_levels=(2.0, 2.0, 10.0))
    # The candidates centred at 5 are about e^-90 on the data: non-zero, but
    # below lstsq's rcond cutoff. Their direction matches the e^{30(y-2)}
    # part of the target, so projection alone would rank them first.
    y = np.random.default_rng(21).uniform(-2.0, 2.0, (400, 1))
    edge = SnapshotDataset(Mode.CONTINUOUS_DERIVATIVES, y,
                           -stable_logistic(5.0 * y) + 20.0 * np.exp(30.0 * (y - 2.0)),
                           0.05)
    edge_pool = PursuitPool(kinds=(Kind.LOGISTIC, Kind.RBF),
                            center_grids=(np.array([-2.0, 0.0, 2.0, 5.0]),),
                            steepness_levels=(1.0, 30.0))
    # [1, y] fits these targets exactly: every residual is rounding noise
    exact = static_dataset()
    cases = ((discrete, pool, 6), (continuous, pool, 6), (discrete, twins, 6),
             (edge, edge_pool, 3), (exact, PursuitPool.for_data(exact.inputs, 3), 4))
    for ds, p, n in cases:
        for ridge in (0.0, 1e-3, 1.0):
            model, trace = matching_pursuit_fit(ds, p, n, ridge)
            ref, ref_trace, _ = _direct_pursuit(ds, p, n, ridge)
            assert trace == ref_trace
            assert model.K.tobytes() == ref.K.tobytes()
            got, want = model.dictionary, ref.dictionary
            assert np.array_equal(got.centers, want.centers)
            assert np.array_equal(got.steepness, want.steepness)
            assert np.array_equal(got.is_rbf, want.is_rbf)

    # a bare projection argmin picks a truncated candidate the solve rejects
    c, a, rbf = edge_pool.packed()
    vals = member_values_packed(Family.AUGSILL, c, a, rbf, y)
    targets = np.hstack([np.zeros((400, 1)), edge.targets])
    q = np.linalg.qr(np.hstack([np.ones((400, 1)), y]))[0]
    resid = targets - q @ (q.T @ targets)
    perp = vals - q @ (q.T @ vals)
    score = np.sum(resid**2) - np.sum((perp.T @ resid) ** 2, axis=1) / np.sum(perp**2, axis=0)
    front = int(np.argmin(score))
    assert c[front, 0] == 5.0
    assert front != _direct_pursuit(edge, edge_pool, 1, 0.0)[2][0]


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
    for ridge in (np.nan, np.inf):
        with pytest.raises(DomainError, match="ridge must be finite"):
            matching_pursuit_fit(ds, ok, 1, ridge=ridge)
    # lstsq and sgd fits need a member too
    for n_members in (0, -1):
        with pytest.raises(DomainError, match="n_members >= 1"):
            matching_pursuit_fit(ds, ok, n_members)


def test_pursuit_rejects_non_finite_data():
    ds = vdp_dataset(n_traj=2, steps=10)
    x = ds.inputs.copy()
    x[3, 1] = np.nan
    bad = SnapshotDataset(Mode.DISCRETE_PAIRS, x, ds.targets, ds.dt)
    with pytest.raises(DataError):
        matching_pursuit_fit(bad, PursuitPool.for_data(ds.targets, points_per_dim=2), 1)
