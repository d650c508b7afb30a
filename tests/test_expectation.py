import math
import tracemalloc

import numpy as np
import pytest

from augsill.dictionaries import _SCALAR_FORMS, Kind
from augsill.errors import IntegrationAccuracyError, ParameterDomainError
from augsill.expectation import (
    MC_CHUNK,
    SamplingSpec,
    _expectation_of,
    expectation_table,
    expected_value,
    monte_carlo_expectation,
    pdf_g,
    write_expectation_csv,
)

# independently integrated rbf means, one per interval half-width
RHO_MEANS = {
    0.5: 0.2491405092,
    1.0: 0.2379469616,
    2.0: 0.1722940954,
    5.0: 0.0613076370,
}


def test_pdf_shape_and_support():
    a = 1.5
    span = 2 * a * a
    assert pdf_g(span, a) == 0.0
    assert pdf_g(-span, a) == 0.0
    assert pdf_g(span * 1.01, a) == 0.0
    assert pdf_g(-10.0, a) == 0.0
    z = np.linspace(0.05, span * 0.99, 40)
    vals = pdf_g(z, a)
    assert np.all(vals > 0)
    assert np.allclose(pdf_g(-z, a), vals)
    # density grows without bound toward the origin
    assert pdf_g(1e-12, a) > pdf_g(0.05, a) > pdf_g(1.0, a)
    assert isinstance(pdf_g(0.3, a), float)
    with pytest.raises(ParameterDomainError):
        pdf_g(0.3, 0.0)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
def test_density_integrates_to_one(a):
    mass = _expectation_of(lambda z: 1.0, SamplingSpec(a))
    assert abs(mass - 1.0) < 1e-10


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
def test_logistic_mean_is_half(a):
    mean, _ = expected_value(Kind.LOGISTIC, SamplingSpec(a))
    assert abs(mean - 0.5) < 1e-10


@pytest.mark.parametrize("a,want", sorted(RHO_MEANS.items()))
def test_rbf_mean_frozen_values(a, want):
    mean, _ = expected_value(Kind.RBF, SamplingSpec(a))
    assert mean == pytest.approx(want, abs=1e-8)


def test_logistic_variance_grows_with_interval():
    variances = [expected_value(Kind.LOGISTIC, SamplingSpec(a)).variance
                 for a in (0.25, 0.5, 1.0, 2.0, 5.0)]
    assert all(v > 0 for v in variances)
    assert all(b > a for a, b in zip(variances, variances[1:]))


def test_rbf_mean_bounded_and_decreasing():
    means = [expected_value(Kind.RBF, SamplingSpec(a)).mean
             for a in (0.25, 0.5, 1.0, 2.0, 5.0)]
    assert all(m <= 0.25 for m in means)
    assert all(b < a for a, b in zip(means, means[1:]))


def test_rbf_mean_small_interval_limit():
    # arguments concentrate near zero, where rho sits at its 1/4 maximum
    mean, _ = expected_value(Kind.RBF, SamplingSpec(0.01))
    assert abs(mean - 0.25) < 1e-3


@pytest.mark.parametrize("kind", [Kind.LOGISTIC, Kind.RBF])
@pytest.mark.parametrize("a", [1.0, 2.0, 5.0])
def test_monte_carlo_agrees_with_quadrature(kind, a):
    spec = SamplingSpec(a, mc_samples=200_000, seed=3)
    mean, _ = expected_value(kind, spec)
    mc = monte_carlo_expectation(kind, spec)
    assert abs(mc.mean - mean) < 4 * mc.stderr


def test_monte_carlo_deterministic():
    spec = SamplingSpec(2.0, mc_samples=5000, seed=11)
    a = monte_carlo_expectation(Kind.LOGISTIC, spec)
    b = monte_carlo_expectation(Kind.LOGISTIC, spec)
    assert a.mean == b.mean
    assert a.stderr == b.stderr
    c = monte_carlo_expectation(Kind.LOGISTIC, SamplingSpec(2.0, mc_samples=5000, seed=12))
    assert c.mean != a.mean


def one_shot_monte_carlo(kind, spec):
    """Reference for monte_carlo_expectation: x, y and z drawn whole from one
    default_rng(seed), in that order."""
    rng = np.random.default_rng(spec.seed)
    x, y, z = (rng.uniform(-spec.a, spec.a, size=spec.mc_samples) for _ in range(3))
    vals = _SCALAR_FORMS[kind](x * (y - z))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(spec.mc_samples))


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("kind", [Kind.LOGISTIC, Kind.RBF])
def test_monte_carlo_streams_the_one_shot_draws(kind, seed):
    # Bitwise the one-shot mean and standard error on both sides of a chunk
    # boundary (MC_CHUNK + 1 ends in a one-row chunk); 1,000 is the smallest
    # sample count SamplingSpec takes.
    for n in (1000, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 100_000):
        spec = SamplingSpec(2.0, mc_samples=n, seed=seed)
        assert tuple(monte_carlo_expectation(kind, spec)) == one_shot_monte_carlo(kind, spec), n


def test_monte_carlo_keeps_only_per_sample_values():
    # Drawn whole, x, y, z and the values peaked at 4.0-4.8 MB for 100,000
    # samples. Streamed, the values and the standard deviation's temporary
    # of the same size stay (1.6 MB), under the 2.4 MB of three sample arrays.
    spec = SamplingSpec(2.0, mc_samples=100_000, seed=0)
    for kind in (Kind.LOGISTIC, Kind.RBF):
        monte_carlo_expectation(kind, SamplingSpec(2.0, mc_samples=1000))
        tracemalloc.start()
        try:
            monte_carlo_expectation(kind, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * spec.mc_samples, (kind, peak)


def test_sampling_spec_validation():
    with pytest.raises(ParameterDomainError):
        SamplingSpec(0.0)
    with pytest.raises(ParameterDomainError):
        SamplingSpec(-2.0)
    with pytest.raises(ParameterDomainError):
        SamplingSpec(float("nan"))
    with pytest.raises(ParameterDomainError):
        SamplingSpec(1.0, mc_samples=10)
    # The support [-2a^2, 2a^2] must be finite: 2a^2 overflows from a ~ 9.5e153.
    for a in (1e154, 1e160, 1e300):
        with pytest.raises(ParameterDomainError):
            SamplingSpec(a)
    assert expected_value(Kind.LOGISTIC, SamplingSpec(1e150)) == (0.5, 0.25)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_nan_quadrature_fails_closed():
    # A nan error estimate is no proof of accuracy.
    with pytest.raises(IntegrationAccuracyError):
        _expectation_of(lambda z: float("nan"), SamplingSpec(1.0))


def test_table_rows_and_csv(tmp_path):
    rows = expectation_table((0.5, 2.0), mc_samples=2000, seed=0)
    assert [(r.a, r.kind) for r in rows] == [
        (0.5, Kind.LOGISTIC),
        (0.5, Kind.RBF),
        (2.0, Kind.LOGISTIC),
        (2.0, Kind.RBF),
    ]
    assert rows[0].mean == pytest.approx(0.5, abs=1e-9)
    assert rows[1].mean == pytest.approx(RHO_MEANS[0.5], abs=1e-8)
    path = tmp_path / "expectation.csv"
    write_expectation_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,kind,mean,variance,mc_mean,mc_stderr"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0.5"
    assert first[1] == "logistic"
    assert float(first[2]) == rows[0].mean
