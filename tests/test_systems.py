import math
import re
import warnings

import numpy as np
import pytest

from augsill.errors import ConfigError, DataError, DivergenceError, DomainError
from augsill.systems import (
    DEFAULT_CONSTANTS,
    DEFAULT_SUBSTEP,
    Mode,
    SnapshotDataset,
    SystemId,
    SystemSpec,
    Trajectory,
    _field,
    _rk4_batch,
    build_snapshot_dataset,
    integrate,
    read_ensemble,
    sample_initial_conditions,
    simulate_ensemble,
    simulate_ensembles,
    system_rhs,
    trajectory_from_csv,
    trajectory_to_csv,
    write_ensemble,
)

VDP = SystemSpec.default("vanderpol")
DUF = SystemSpec.default("duffing")
PP = SystemSpec.default("predatorprey")
TS = SystemSpec.default("toggleswitch")


# -- vector fields -----------------------------------------------------------


def test_fixed_points():
    np.testing.assert_array_equal(system_rhs(VDP, np.zeros(2)), np.zeros(2))
    np.testing.assert_array_equal(system_rhs(PP, np.zeros(2)), np.zeros(2))
    np.testing.assert_array_equal(system_rhs(DUF, np.zeros(2)), np.zeros(2))


def test_toggle_switch_at_origin():
    np.testing.assert_allclose(system_rhs(TS, np.zeros(2)), [2.5, 1.5])


def test_toggle_switch_rejects_negative_state():
    with pytest.raises(DomainError):
        system_rhs(TS, np.array([-0.1, 1.0]))


def test_vanderpol_rhs_value():
    # c1*(1-x1^2)*x2 - x1 at (0.5, 2.0) with c1=1
    got = system_rhs(VDP, np.array([0.5, 2.0]))
    np.testing.assert_allclose(got, [2.0, 0.75 * 2.0 - 0.5])


def test_duffing_rhs_value():
    # x2dot = x1 - x1^3 at the default constants (0, -1, 1)
    got = system_rhs(DUF, np.array([2.0, 0.3]))
    np.testing.assert_allclose(got, [0.3, 2.0 - 8.0])


def test_custom_constants_checked():
    with pytest.raises(DomainError):
        SystemSpec(SystemId.VAN_DER_POL, (1.0, 2.0))
    s = SystemSpec(SystemId.VAN_DER_POL, (2.5,))
    got = system_rhs(s, np.array([0.5, 1.0]))
    assert abs(got[1] - (2.5 * 0.75 - 0.5)) < 1e-15


def test_rhs_rejects_nonfinite():
    with pytest.raises(DataError):
        system_rhs(VDP, np.array([np.nan, 0.0]))


def textbook_field(s, X):
    """The four vector fields as written in their papers, on (r, 2) states."""
    x1, x2 = X[:, 0], X[:, 1]
    if s.id == SystemId.VAN_DER_POL:
        (c1,) = s.constants
        dx = (x2, c1 * (1.0 - x1 * x1) * x2 - x1)
    elif s.id == SystemId.DUFFING:
        c2, c3, c4 = s.constants
        dx = (x2, -c2 * x2 - x1 * (c3 + c4 * x1 * x1))
    elif s.id == SystemId.PREDATOR_PREY:
        c5, c6, c7, c8 = s.constants
        dx = (c5 * x1 - c6 * x1 * x2, c7 * x1 * x2 - c8 * x2)
    else:
        c9, c10, c11, c12, c13 = s.constants
        dx = (c9 / (1.0 + x2**c11) - c13 * x1, c10 / (1.0 + x1**c12) - c13 * x2)
    return np.stack(dx, axis=1)


CUSTOM_CONSTANTS = {
    SystemId.VAN_DER_POL: (2.5,),
    SystemId.DUFFING: (0.3, 0.7, -0.2),
    SystemId.PREDATOR_PREY: (0.7, 0.3, 0.9, 1.4),
    # Hill powers 2 and 0.5 are the ones x ** c evaluates as square and sqrt.
    SystemId.TOGGLE_SWITCH: (3.0, 2.0, 2.0, 0.5, 0.1),
}


def test_field_kernels_match_textbook_bitwise():
    # numpy picks its SIMD loops (pow above all) by stride and batch length,
    # so each kernel is pinned on lone states and on batches, in the layout
    # the integrator uses and through system_rhs.
    rng = np.random.default_rng(11)
    for sid, custom in CUSTOM_CONSTANTS.items():
        low = 0.0 if sid == SystemId.TOGGLE_SWITCH else -3.0
        for s in (SystemSpec.default(sid), SystemSpec(sid, custom)):
            for r in (2, 7, 8, 9, 20, 64):
                X = rng.uniform(low, 3.0, (r, 2))
                k = _field(s, r)(X.T.copy(), np.empty((2, r)))
                assert k.T.tobytes() == textbook_field(s, X).tobytes(), (s, r)
            # A lone state takes other loops, and a wrong one differs in a few
            # percent of states, so many are checked.
            for x in rng.uniform(low, 3.0, (200, 2)):
                want = textbook_field(s, x[None, :])
                k = _field(s, 1)(x[:, None].copy(), np.empty((2, 1)))
                assert k.T.tobytes() == want.tobytes(), (s, x)
                assert system_rhs(s, x).tobytes() == want[0].tobytes(), (s, x)


def test_toggle_switch_rejects_negative_stage_state():
    # The start is nonnegative but a strong decay rate drives the first
    # stage state x + (h/2) k1 below 0: the kernel raises before any power.
    s = SystemSpec(SystemId.TOGGLE_SWITCH, (2.5, 1.5, 1.4, 1.1, 100.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            integrate(s, np.array([1.0, 1.0]), dt=0.1, steps=1, max_substep=0.1)


# -- integration ---------------------------------------------------------------


def test_integrate_validates_arguments():
    with pytest.raises(DomainError):
        integrate(VDP, np.zeros(2), dt=0.0, steps=5)
    with pytest.raises(DomainError):
        integrate(VDP, np.zeros(2), dt=0.1, steps=0)
    with pytest.raises(DomainError):
        integrate(VDP, np.zeros(3), dt=0.1, steps=5)
    # A step of more than MAX_SUBSTEPS_PER_STEP substeps is refused at once.
    for dt in (1e300, 1e10, 1.0001e4):
        with pytest.raises(DomainError, match="dt "):
            integrate(VDP, np.zeros(2), dt=dt, steps=5)


def test_integrate_from_fixed_point():
    tr = integrate(VDP, np.zeros(2), dt=0.1, steps=1)
    assert len(tr) == 2
    np.testing.assert_array_equal(tr.states[0], tr.states[1])


def test_vanderpol_stays_on_limit_cycle():
    tr = integrate(VDP, np.array([2.0, 0.0]), dt=0.5, steps=200)
    assert np.abs(tr.states).max() < 5.0


def test_substep_self_convergence():
    x0 = np.array([1.0, 0.5])
    a = integrate(DUF, x0, dt=0.1, steps=10, max_substep=1e-3)
    b = integrate(DUF, x0, dt=0.1, steps=10, max_substep=5e-4)
    assert np.abs(a.states - b.states).max() < 1e-8


def test_rk4_observed_order():
    # error vs a fine reference scales like h^p with p >= 3.8 on duffing
    x0 = np.array([1.3, -0.4])
    ref = integrate(DUF, x0, dt=1.0, steps=1, max_substep=1e-4).states[-1]
    errs = []
    hs = (0.05, 0.025, 0.0125)
    for h in hs:
        got = integrate(DUF, x0, dt=1.0, steps=1, max_substep=h).states[-1]
        errs.append(np.linalg.norm(got - ref))
    orders = np.diff(np.log(errs)) / np.diff(np.log(hs))
    assert orders.min() >= 3.8


def test_divergence_reports_step():
    # duffing with inverted potential blows up from far out, overflowing inside
    # a step; the overflow stays silent and the bound check names the step
    s = SystemSpec(SystemId.DUFFING, (0.0, -1.0, -1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as ei:
            integrate(s, np.array([3.0, 0.0]), dt=1.0, steps=50)
    assert ei.value.step_index >= 1


def test_integrate_rejects_bad_substep():
    for bad in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(DomainError, match="max_substep"):
            integrate(VDP, np.zeros(2), dt=0.1, steps=5, max_substep=bad)
        with pytest.raises(DomainError, match="max_substep"):
            simulate_ensemble(VDP, 2, dt=0.1, steps=5, seed=0, max_substep=bad)


def test_default_substep_meets_its_budget():
    # Each system's default ensemble at DEFAULT_SUBSTEP stays within 1e-6,
    # norm-relative, of the same ensemble at a 40x finer substep.
    for s in (VDP, DUF, PP, TS):
        got, ref = (
            np.stack([tr.states for tr in simulate_ensemble(s, 20, 0.05, 200, 0, h)])
            for h in (DEFAULT_SUBSTEP, DEFAULT_SUBSTEP / 40)
        )
        assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max(), s.id


def test_rk4_buffers_match_formula_bitwise():
    # The buffered component-major integrator keeps the operation order of
    # the textbook formula written with temporaries on the textbook fields,
    # so every path carries its bits.
    def reference(s, X0, dt, steps, max_substep):
        n_sub = max(1, math.ceil(dt / max_substep - 1e-12))
        h = dt / n_sub
        out = [X0]
        x = X0.copy()
        for _ in range(steps):
            for _ in range(n_sub):
                k1 = textbook_field(s, x)
                k2 = textbook_field(s, x + (0.5 * h) * k1)
                k3 = textbook_field(s, x + (0.5 * h) * k2)
                k4 = textbook_field(s, x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(x)
        return np.stack(out)

    for s in (VDP, DUF, PP, TS):
        for r in (1, 5):
            x0 = sample_initial_conditions(s, r, seed=2)
            for dt, max_substep in ((0.05, 0.01), (0.1, 0.1), (0.03, 0.007)):
                got = _rk4_batch(s, x0, dt, 20, max_substep)
                assert got.tobytes() == reference(s, x0, dt, 20, max_substep).tobytes(), s.id


# -- seeded ensembles ------------------------------------------------------------


def test_initial_conditions_subset_stable():
    a = sample_initial_conditions(VDP, 8, seed=4)
    b = sample_initial_conditions(VDP, 3, seed=4)
    np.testing.assert_array_equal(a[:3], b)
    assert np.all((a >= -2.0) & (a <= 2.0))


def test_initial_conditions_respect_box():
    pts = sample_initial_conditions(TS, 50, seed=9)
    assert np.all((pts >= 0.0) & (pts <= 4.0))


def test_simulate_ensemble_deterministic():
    a = simulate_ensemble(VDP, 3, dt=0.1, steps=5, seed=7)
    b = simulate_ensemble(VDP, 3, dt=0.1, steps=5, seed=7)
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta.states, tb.states)
    c = simulate_ensemble(VDP, 3, dt=0.1, steps=5, seed=8)
    assert not np.array_equal(a[0].states, c[0].states)


def test_batched_ensembles_match_one_seed_calls_bitwise():
    # One RK4 batch over several seeds is row-wise arithmetic, so each seed's
    # paths carry the bits of its ensemble simulated alone.
    seeds = (0, 1, 6, 7)
    for s in (VDP, DUF, PP, TS):
        batch = simulate_ensembles(s, 3, dt=0.05, steps=30, seeds=seeds)
        assert len(batch) == len(seeds)
        for seed, ensemble in zip(seeds, batch):
            alone = simulate_ensemble(s, 3, dt=0.05, steps=30, seed=seed)
            assert len(ensemble) == len(alone) == 3
            for a, b in zip(ensemble, alone):
                assert a.states.tobytes() == b.states.tobytes(), (s.id, seed)
                assert a.seed_provenance == b.seed_provenance == seed


def test_batched_ensembles_validate_arguments():
    for bad in ({"n_trajectories": 0}, {"seeds": ()}, {"dt": 0.0}, {"steps": 0}):
        kwargs = {"n_trajectories": 2, "dt": 0.1, "steps": 3, "seeds": (0, 1), **bad}
        with pytest.raises(DomainError):
            simulate_ensembles(VDP, **kwargs)


def test_batched_divergence_names_its_ensemble():
    # Inverted duffing (xddot = x + x^3) blows up from every start; in this
    # batch the first row out of bounds is trajectory 1 of the second seed.
    s = SystemSpec(SystemId.DUFFING, (0.0, -1.0, -1.0))
    seeds, n, dt, steps = (1, 2), 3, 0.1, 80
    with pytest.raises(DivergenceError) as ei:
        simulate_ensembles(s, n, dt, steps, seeds)
    step = ei.value.step_index
    found = re.search(r"^duffing trajectory (\d+) of seed (\d+) exceeded .* at step (\d+)$",
                      str(ei.value))
    assert found is not None, str(ei.value)
    i, seed = int(found[1]), int(found[2])
    assert (i, seed) == (1, 2) and int(found[3]) == step
    # Alone, the named trajectory leaves the bound at that step; the rows
    # before it in the batch stay within it up to that step.
    x0 = [x for sd in seeds for x in sample_initial_conditions(s, n, sd)]
    row = seeds.index(seed) * n + i
    with pytest.raises(DivergenceError) as solo:
        integrate(s, x0[row], dt, steps)
    assert solo.value.step_index == step
    for earlier in x0[:row]:
        integrate(s, earlier, dt, step)


def test_integration_leaves_initial_states_untouched():
    # The integrator copies the initial states into its component-major
    # buffer; for one row, X0.T is a contiguous view of the caller's array.
    x0 = np.array([0.7, -0.3])
    before = x0.tobytes()
    integrate(VDP, x0, dt=0.1, steps=3)
    assert x0.tobytes() == before
    for r in (1, 4):
        X0 = sample_initial_conditions(TS, r, seed=3)
        before = X0.tobytes()
        _rk4_batch(TS, X0, 0.1, 3, 0.01)  # the batch simulate_ensembles runs
        assert X0.tobytes() == before, r


def test_ensemble_matches_single_integration():
    # batch arithmetic is elementwise, so row i equals its solo integration
    trs = simulate_ensemble(DUF, 4, dt=0.1, steps=8, seed=1)
    x0 = sample_initial_conditions(DUF, 4, seed=1)
    solo = integrate(DUF, x0[2], dt=0.1, steps=8)
    np.testing.assert_array_equal(trs[2].states, solo.states)


# -- snapshot datasets --------------------------------------------------------------


def _constant_trajectory(n):
    states = np.tile([0.5, -1.0], (n, 1))
    return Trajectory(dt=0.1, states=states, system=VDP)


def test_snapshot_counts():
    tr = integrate(VDP, np.array([1.0, 1.0]), dt=0.1, steps=10)
    ds = build_snapshot_dataset([tr], Mode.DISCRETE_PAIRS)
    assert ds.n_rows == 10
    dc = build_snapshot_dataset([tr], Mode.CONTINUOUS_DERIVATIVES)
    assert dc.n_rows == 9
    both = build_snapshot_dataset([tr, tr], Mode.DISCRETE_PAIRS)
    assert both.n_rows == 20


def test_snapshot_discrete_pairs_align():
    tr = integrate(VDP, np.array([1.0, 1.0]), dt=0.1, steps=5)
    ds = build_snapshot_dataset([tr], "discrete")
    np.testing.assert_array_equal(ds.inputs, tr.states[:-1])
    np.testing.assert_array_equal(ds.targets, tr.states[1:])


def test_snapshot_constant_trajectory():
    tr = _constant_trajectory(6)
    ds = build_snapshot_dataset([tr], Mode.DISCRETE_PAIRS)
    np.testing.assert_array_equal(ds.inputs, ds.targets)
    dc = build_snapshot_dataset([tr], Mode.CONTINUOUS_DERIVATIVES)
    np.testing.assert_array_equal(dc.targets, np.zeros_like(dc.targets))


def test_central_difference_accuracy():
    # x(t) = e^{-t} for both coordinates; central diff error is O(dt^2)
    dt = 0.01
    t = np.arange(61) * dt
    states = np.exp(-t)[:, None] * np.ones((1, 2))
    tr = Trajectory(dt=dt, states=states, system=VDP)
    ds = build_snapshot_dataset([tr], Mode.CONTINUOUS_DERIVATIVES)
    expect = -np.exp(-t[1:-1])[:, None] * np.ones((1, 2))
    assert np.abs(ds.targets - expect).max() < 1e-4


def test_snapshot_rejects_mixed_inputs():
    t1 = integrate(VDP, np.array([1.0, 1.0]), dt=0.1, steps=4)
    t2 = integrate(VDP, np.array([1.0, 1.0]), dt=0.2, steps=4)
    with pytest.raises(ConfigError):
        build_snapshot_dataset([t1, t2], Mode.DISCRETE_PAIRS)
    with pytest.raises(ConfigError):
        build_snapshot_dataset([], Mode.DISCRETE_PAIRS)


def test_snapshot_dataset_validates_shape():
    with pytest.raises(ConfigError):
        SnapshotDataset(Mode.DISCRETE_PAIRS, np.zeros((3, 2)), np.zeros((4, 2)), 0.1)


# -- CSV round trips ------------------------------------------------------------------


def test_trajectory_csv_roundtrip(tmp_path):
    tr = integrate(VDP, np.array([0.8, -0.3]), dt=0.1, steps=7)
    p = tmp_path / "traj.csv"
    trajectory_to_csv(tr, p)
    back = trajectory_from_csv(p, VDP, 0.1)
    np.testing.assert_array_equal(back.states, tr.states)


def test_trajectory_csv_derivative_columns(tmp_path):
    tr = integrate(VDP, np.array([0.8, -0.3]), dt=0.1, steps=4)
    p = tmp_path / "traj.csv"
    trajectory_to_csv(tr, p, include_derivatives=True)
    rows = p.read_text().strip().split("\n")
    assert rows[0] == "t,x1,x2,dx1,dx2"
    first = rows[1].split(",")
    assert first[3] == "" and first[4] == ""
    mid = rows[2].split(",")
    want = (tr.states[2] - tr.states[0]) / 0.2
    assert float(mid[3]) == want[0]


def test_ensemble_roundtrip(tmp_path):
    trs = simulate_ensemble(TS, 3, dt=0.05, steps=6, seed=5)
    write_ensemble(trs, tmp_path, seed=5)
    back = read_ensemble(tmp_path)
    assert len(back) == 3
    assert back[0].system.id == SystemId.TOGGLE_SWITCH
    assert back[0].system.constants == DEFAULT_CONSTANTS[SystemId.TOGGLE_SWITCH]
    assert back[0].seed_provenance == 5
    for a, b in zip(trs, back):
        np.testing.assert_array_equal(a.states, b.states)


def test_read_ensemble_missing_dir(tmp_path):
    with pytest.raises(ConfigError):
        read_ensemble(tmp_path / "nope")
