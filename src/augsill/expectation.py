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
# Rows of each Monte-Carlo draw, here and in closure's bound check: the
# samples are drawn and reduced to their per-sample values this many at a time.
MC_CHUNK = 8192


@dataclass(frozen=True)
class SamplingSpec:
    """Uniform-draw setup shared by the quadrature and Monte-Carlo paths."""

    a: float
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.a) or self.a <= 0:
            raise ParameterDomainError(f"a must be finite and > 0: {self.a}")
        if not math.isfinite(2.0 * self.a * self.a):
            raise ParameterDomainError(f"a = {self.a} has a support 2a^2 that is not finite")
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
    if not err <= 1e-8 * max(abs(total), 1.0):  # fails closed on nan
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


def _uniform_chunks(seed, a, n_arrays, n, m):
    """Draw n_arrays uniform [-a, a] arrays of shape (n, m) in chunks of
    MC_CHUNK rows: yields (rows, draws), a slice of the rows and those rows of
    each array.

    The values are those of default_rng(seed) drawing the whole arrays in
    sequence, rows in order: array k begins k * n * m draws into the PCG64
    stream, so its own generator starts there, by PCG64's jump-ahead."""
    streams = [np.random.Generator(np.random.PCG64(seed).advance(k * n * m))
               for k in range(n_arrays)]
    for lo in range(0, n, MC_CHUNK):
        hi = min(lo + MC_CHUNK, n)
        yield slice(lo, hi), [g.uniform(-a, a, size=(hi - lo, m)) for g in streams]


def monte_carlo_expectation(kind, spec: SamplingSpec) -> MonteCarloResult:
    """Sample mean and standard error of the scalar member at X(Y - Z).

    X, Y and Z are the whole arrays that default_rng(seed) draws in that
    order, rows in order. They are drawn MC_CHUNK rows at a time, array k from
    a PCG64(seed) stream advanced k * mc_samples draws (`_uniform_chunks`);
    only the member's value is kept per sample (8 bytes), so its mean and
    standard deviation reduce the same array as a one-shot draw, bit for bit."""
    form = _SCALAR_FORMS[Kind(kind)]
    vals = np.empty(spec.mc_samples)
    for rows, (x, y, z) in _uniform_chunks(spec.seed, spec.a, 3, spec.mc_samples, 1):
        vals[rows] = form(x * (y - z))[:, 0]
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
