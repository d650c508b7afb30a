"""Distribution of scaled measurement gaps and expectations of scalar members.

When the measurement, the center, and an independent copy of the measurement
are all drawn uniformly from a symmetric interval, the steepness-times-gap
argument fed to a scalar member is a product X(Y - Z) of three such draws.
This module carries its density in closed form, integrates scalar members
against it with singularity-aware quadrature, and cross-checks every number
by direct Monte-Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .dictionaries import _SCALAR_FORMS, Kind
from .errors import IntegrationAccuracyError, ParameterDomainError
from .systems import write_csv

# Subinterval cap of each quad call; at a in [0.1, 1000] none needs more than 13.
QUAD_LIMIT = 200


@dataclass(frozen=True)
class SamplingSpec:
    """Uniform-draw setup shared by the quadrature and Monte-Carlo paths."""

    a: float
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.a) or self.a <= 0:
            raise ParameterDomainError(f"a must be finite and > 0: {self.a}")
        if self.mc_samples < 1000:
            raise ParameterDomainError("mc_samples must be >= 1000")


def pdf_g(z, a):
    """Density of X(Y - Z) for X, Y, Z iid uniform on [-a, a].

    Supported on [-2a^2, 2a^2] with an integrable log singularity at 0; the
    value at exactly 0 is inf and quadrature callers must avoid that point.
    """
    if not np.isfinite(a) or a <= 0:
        raise ParameterDomainError(f"a must be finite and > 0: {a}")
    z = np.asarray(z, dtype=float)
    span = 2.0 * a * a
    mag = np.abs(z)
    with np.errstate(divide="ignore"):
        inside = (np.log(span) - np.log(mag) + mag / span - 1.0) / span
    out = np.where(mag <= span, inside, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _half_line_integral(fn, a):
    """(Integral, error estimate) of fn(z) g(z) over (0, 2a^2], via z = 2a^2 e^-u.

    The substitution absorbs both the endpoint and the log singularity: the
    transformed integrand (u + e^-u - 1) e^-u fn(2a^2 e^-u) is smooth on
    [0, inf).
    """
    span = 2.0 * a * a

    def integrand(u):
        eu = math.exp(-u)
        return (u + eu - 1.0) * eu * fn(span * eu)

    return quad(integrand, 0.0, np.inf, limit=QUAD_LIMIT, epsabs=1e-12, epsrel=1e-10)


def _expectation_of(fn, spec: SamplingSpec):
    total, err = 0.0, 0.0
    for sign in (1.0, -1.0):
        v, e = _half_line_integral(lambda z: fn(sign * z), spec.a)
        total += v
        err += e
    if err > 1e-8 * max(abs(total), 1.0):
        raise IntegrationAccuracyError(
            f"quadrature error estimate {err:.3e} too large for value {total:.3e}"
        )
    return total


class ExpectationResult(NamedTuple):
    mean: float
    variance: float


def expected_value(kind, spec: SamplingSpec) -> ExpectationResult:
    """Mean and variance of a scalar member under the product-gap density."""
    form = _SCALAR_FORMS[Kind(kind)]
    mean = _expectation_of(lambda z: float(form(z)), spec)
    second = _expectation_of(lambda z: float(form(z)) ** 2, spec)
    return ExpectationResult(mean, second - mean * mean)


class MonteCarloResult(NamedTuple):
    mean: float
    stderr: float


def monte_carlo_expectation(kind, spec: SamplingSpec) -> MonteCarloResult:
    """Sample mean and standard error of the scalar member at X(Y - Z)."""
    form = _SCALAR_FORMS[Kind(kind)]
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(-spec.a, spec.a, size=spec.mc_samples)
    y = rng.uniform(-spec.a, spec.a, size=spec.mc_samples)
    z = rng.uniform(-spec.a, spec.a, size=spec.mc_samples)
    vals = form(x * (y - z))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(spec.mc_samples))
    return MonteCarloResult(mean, stderr)


@dataclass(frozen=True)
class ExpectationRow:
    a: float
    kind: Kind
    mean: float
    variance: float
    mc_mean: float
    mc_stderr: float


def expectation_table(a_values, mc_samples=100_000, seed=0):
    """Quadrature and Monte-Carlo columns for both scalar kinds at each a."""
    rows = []
    for a in a_values:
        for kind in (Kind.LOGISTIC, Kind.RBF):
            spec = SamplingSpec(a, mc_samples, seed)
            mean, var = expected_value(kind, spec)
            mc_mean, mc_stderr = monte_carlo_expectation(kind, spec)
            rows.append(ExpectationRow(float(a), kind, mean, var, mc_mean, mc_stderr))
    return rows


def write_expectation_csv(rows, path):
    write_csv(
        path,
        ["a", "kind", "mean", "variance", "mc_mean", "mc_stderr"],
        [[r.a, r.kind.value, r.mean, r.variance, r.mc_mean, r.mc_stderr] for r in rows],
    )
