"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single summary line; run
with `pytest tests/test_acceptance.py -v` to get the pass/fail table. The
comparison criterion drives the real training grid and dominates runtime.
"""

import csv
import filecmp
import os
import statistics
import time

import numpy as np
import pytest
from scipy.linalg import expm

from augsill.cli import main as cli_main
from augsill.closure import (
    expectation_bound_check,
    explosion_growth,
    polynomial_explosion_demo,
    theorem_suite,
)
from augsill.dictionaries import (
    Dictionary,
    Family,
    Kind,
    lift,
    lift_jacobian,
    member_values_packed,
    param_gradients,
    polynomial_multi_indices,
    stable_logistic,
    stable_rbf,
)
from augsill.expectation import (
    SamplingSpec,
    _expectation_of,
    expected_value,
    monte_carlo_expectation,
)
from augsill.solver import fit_k
from augsill.systems import (
    Mode,
    SnapshotDataset,
    SystemSpec,
    build_snapshot_dataset,
    simulate_ensemble,
)
from augsill.trainer import PursuitPool, matching_pursuit_fit

FD_STEP = 1e-6
FD_REL = 1e-5

SYSTEM_NAMES = ("vanderpol", "duffing", "predatorprey", "toggleswitch")


def member_value(kind, centers, steeps, y):
    """Value at the point y of one conjunctive member of the given kind."""
    return float(member_values_packed(Family.AUGSILL, centers[None], steeps[None],
                                      np.array([kind == Kind.RBF]), y[None])[0, 0])


def random_dictionary(family, m, n, rng):
    centers = rng.uniform(-1.5, 1.5, (n, m))
    steeps = rng.uniform(0.5, 3.0, (n, m))
    if family in (Family.LEGENDRE, Family.HERMITE):
        return Dictionary(family, m, polynomial_multi_indices(m, n))
    n_log = {Family.SILL: n, Family.AUGSILL: (n + 1) // 2, Family.SUMMED_RBF: 0}[family]
    return Dictionary.from_packed(family, centers, steeps, np.arange(n) >= n_log)


def rel_close(analytic, numeric, rel=FD_REL, floor=1e-9):
    # the floor absorbs central-difference rounding noise on near-zero entries
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    gap = np.abs(analytic - numeric)
    return bool(np.all(gap <= rel * np.abs(analytic) + floor))


def test_criterion_01_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    m, n = 3, 6
    for family in Family:
        d = random_dictionary(family, m, n, rng)
        has_params = family in (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF)
        for _ in range(100):
            y = rng.uniform(-1.5, 1.5, m)
            J = lift_jacobian(d, y)
            num = np.stack(
                [(lift(d, y + dy) - lift(d, y - dy)) / (2 * FD_STEP)
                 for dy in FD_STEP * np.eye(m)], axis=1)
            assert rel_close(J, num), family
            if not has_params:
                continue
            g = param_gradients(d, y)
            centers, steeps = d.centers, d.steepness

            def rebuild(c, s):
                return Dictionary.from_packed(family, c, s, d.is_rbf)

            # one random coordinate per point keeps the loop under budget
            j = int(rng.integers(n))
            i = int(rng.integers(m))
            bump = np.zeros((n, m))
            bump[j, i] = FD_STEP
            row = 1 + m + j
            num_c = (lift(rebuild(centers + bump, steeps), y)[row]
                     - lift(rebuild(centers - bump, steeps), y)[row]) / (2 * FD_STEP)
            num_s = (lift(rebuild(centers, steeps + bump), y)[row]
                     - lift(rebuild(centers, steeps - bump), y)[row]) / (2 * FD_STEP)
            assert rel_close(g.d_center[j, i], num_c), family
            assert rel_close(g.d_steepness[j, i], num_s), family
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 1 PASS: gradients vs central differences ({elapsed:.2f}s)")


def test_criterion_02_rbf_identity_and_maxima():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        y = rng.uniform(-5, 5)
        center, steep = rng.uniform(-2, 2), rng.uniform(0.1, 10)
        lam = float(stable_logistic(steep * (y - center)))
        rho = float(stable_rbf(steep * (y - center)))
        assert abs(rho - (lam - lam * lam)) < 1e-12
    for m in (1, 2, 3):
        center = rng.uniform(-1, 1, m)
        steep = rng.uniform(0.5, 5, m)
        assert member_value(Kind.LOGISTIC, center, steep, center) == 0.5**m
        assert member_value(Kind.RBF, center, steep, center) == 0.25**m
    print("criterion 2 PASS: scalar identity to 1e-12, conjunctive peaks exact")


def test_criterion_03_linear_system_oracle():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dt = 0.05
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (200, 2))
    step = expm(A * dt)
    ds = SnapshotDataset(Mode.DISCRETE_PAIRS, x, x @ step.T, dt)
    model = fit_k(ds, Dictionary.linear(2), ridge=0.0)
    assert model.K.shape == (3, 3)
    gap = np.max(np.abs(model.K[1:, 1:] - step))
    assert gap < 1e-6
    print(f"criterion 3 PASS: state block matches matrix exponential ({gap:.2e})")


def check_theorem_suite(seed):
    """Criterion 4's three asserts on the 200 sweeps of one seed."""
    reports = theorem_suite(n_configs=50, seed=seed, n_points=10_000, gap=0.2)
    assert len(reports) == 200
    for rep in reports:
        assert rep.slope < 0, (seed, rep.theorem, rep.config_id)
        assert rep.r_squared > 0.95, (seed, rep.theorem, rep.config_id)
        at_100 = rep.sup_errors[rep.alpha_scales.index(100.0)]
        assert at_100 < 1e-3, (seed, rep.theorem, rep.config_id)


def test_criterion_04_theorem_suite():
    t0 = time.monotonic()
    check_theorem_suite(0)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 4 PASS: 200 sweeps decay cleanly ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_04_holds_at_200_seeds():
    # The same asserts at seeds 0-199, fixed in advance.
    t0 = time.monotonic()
    for seed in range(200):
        check_theorem_suite(seed)
    print(f"criterion 4 at 200 seeds PASS: 40,000 sweeps decay cleanly "
          f"({time.monotonic() - t0:.0f}s)")


def test_criterion_05_polynomial_explosion():
    ys = (32.0, 64.0, 128.0, 256.0, 512.0)
    for degree in (1, 2, 3):
        fit = explosion_growth(polynomial_explosion_demo(degree, ys))
        assert abs(fit.slope - (degree + 1)) < 0.2, degree
    print("criterion 5 PASS: closure residual grows like degree+1")


def test_criterion_06_expectation_suite():
    t0 = time.monotonic()
    a_grid = (0.5, 1.0, 2.0, 5.0)
    rho_means = []
    for a in a_grid:
        spec = SamplingSpec(a)
        mass = _expectation_of(lambda z: 1.0, spec)
        assert abs(mass - 1.0) < 1e-6
        lam_mean, _ = expected_value(Kind.LOGISTIC, spec)
        assert abs(lam_mean - 0.5) < 1e-6
        rho_mean, _ = expected_value(Kind.RBF, spec)
        assert rho_mean <= 0.25
        rho_means.append(rho_mean)
        for kind, quad in ((Kind.LOGISTIC, lam_mean), (Kind.RBF, rho_mean)):
            mc = monte_carlo_expectation(kind, spec)
            assert abs(mc.mean - quad) < 4 * mc.stderr, (kind, a)
    assert all(b < a for a, b in zip(rho_means, rho_means[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 6 PASS: density and expectations check out ({elapsed:.1f}s)")


def test_criterion_07_empirical_bound_checks():
    for m in (1, 2, 3):
        chk = expectation_bound_check(m)
        assert chk.all_within, m
        assert chk.mean_logistic_product < 2.0 ** (-m)
        assert chk.mean_rbf_product < 2.0 ** (-2 * m)
        assert chk.mean_limit_product < 2.0 ** (-3 * m)
    print("criterion 7 PASS: sampled product means sit under the closed-form bounds")


def check_dictionary_comparison(tmp_path, seeds):
    """Criterion 8's grid and asserts on the medians pooled over seeds;
    returns (legendre/augsill ratio, seconds taken)."""
    t0 = time.monotonic()
    out = tmp_path / "grid"
    workers = str(min(4, os.cpu_count() or 1))
    code = cli_main([
        "compare",
        "--systems", "vanderpol,toggleswitch",
        "--dims", "20",
        "--seeds", seeds,
        "--epochs", "1000",
        "--workers", workers,
        "--out", str(out),
    ])
    assert code == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    errs = {}
    for row in rows:
        errs.setdefault(row["dictionary"], []).append(float(row["error"]))
    med = {fam: statistics.median(v) for fam, v in errs.items()}
    ratio = med["legendre"] / med["augsill"]
    assert ratio >= 10.0, med
    assert max(med["sill"], med["augsill"], med["summedrbf"]) < min(
        med["legendre"], med["hermite"]
    ), med
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    return ratio, elapsed


def test_criterion_08_dictionary_comparison(tmp_path):
    ratio, elapsed = check_dictionary_comparison(tmp_path, "0,1,2")
    print(
        "criterion 8 PASS: median legendre/augsill error ratio "
        f"{ratio:.1f}x, sigmoid families rank first ({elapsed:.0f}s)"
    )


@pytest.mark.slow
def test_criterion_08_holds_at_ten_seeds(tmp_path):
    # The same asserts on the medians pooled over seeds 0-9, fixed in advance.
    ratio, elapsed = check_dictionary_comparison(tmp_path, "0,1,2,3,4,5,6,7,8,9")
    print(
        "criterion 8 at ten seeds PASS: median legendre/augsill error ratio "
        f"{ratio:.1f}x, sigmoid families rank first ({elapsed:.0f}s)"
    )


def test_criterion_09_matching_pursuit():
    for name in SYSTEM_NAMES:
        trs = simulate_ensemble(SystemSpec.default(name), 4, dt=0.05,
                                steps=40, seed=3)
        ds = build_snapshot_dataset(trs, Mode.DISCRETE_PAIRS)
        pool = PursuitPool.for_data(ds.inputs, points_per_dim=4,
                                    steepness_levels=(1.0, 3.0))
        _, trace = matching_pursuit_fit(ds, pool, 6)
        assert len(trace) == 6
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-12, name

    rng = np.random.default_rng(21)
    y = rng.uniform(-2.0, 2.0, (400, 1))
    dy = -stable_logistic(5.0 * y)
    ds = SnapshotDataset(Mode.CONTINUOUS_DERIVATIVES, y, dy, 0.05)
    pool = PursuitPool(kinds=(Kind.LOGISTIC, Kind.RBF),
                       center_grids=(np.array([-1.0, 0.0, 1.0]),),
                       steepness_levels=(1.0, 5.0))
    model, trace = matching_pursuit_fit(ds, pool, 1)
    d = model.dictionary
    assert not d.is_rbf[0]
    assert d.centers[0, 0] == 0.0
    assert d.steepness[0, 0] == 5.0
    assert trace[0] < 1e-20
    print("criterion 9 PASS: pursuit traces monotone, planted member recovered")


def test_criterion_10_command_determinism(tmp_path):
    def pipeline(root):
        data = root / "data"
        fit = root / "fit"
        assert cli_main(["simulate", "--system", "toggleswitch", "--n-traj", "3",
                         "--steps", "30", "--seed", "5", "--derivatives",
                         "--out", str(data)]) == 0
        assert cli_main(["fit", "--data", str(data), "--family", "augsill",
                         "--n-members", "3", "--method", "varpro", "--epochs", "6",
                         "--seed", "2", "--out", str(fit)]) == 0
        assert cli_main(["evaluate", "--model", str(fit / "model.ini"),
                         "--data", str(data), "--out", str(root / "eval")]) == 0
        assert cli_main(["closure", "--theorems", "loglog", "--configs", "2",
                         "--points", "1500", "--degrees", "1",
                         "--mc-samples", "20000", "--out", str(root / "cl")]) == 0
        assert cli_main(["expectation", "--a-values", "1", "--mc-samples", "2000",
                         "--out", str(root / "exp")]) == 0
        assert cli_main(["compare", "--systems", "duffing", "--families", "sill",
                         "--dims", "3", "--seeds", "0", "--epochs", "3",
                         "--n-traj", "2", "--steps", "20",
                         "--out", str(root / "cmp")]) == 0

    a, b = tmp_path / "runA", tmp_path / "runB"
    pipeline(a)
    pipeline(b)
    compared = 0
    for dirpath, _, names in os.walk(a):
        for name in names:
            if not name.endswith(".csv"):
                continue
            pa = os.path.join(dirpath, name)
            pb = os.path.join(str(b), os.path.relpath(pa, str(a)))
            assert filecmp.cmp(pa, pb, shallow=False), pa
            compared += 1
    assert compared >= 12
    print(f"criterion 10 PASS: {compared} CSV artifacts reproduce bitwise")
