"""Lifting dictionaries: logistic/RBF mixtures, summed RBFs, and tensor polynomials.

A dictionary maps an m-dimensional measurement vector y to the lifted vector

    psi(y) = [1, y_1, ..., y_m, g_1(y), ..., g_N(y)]

where the g_j are the family's nonlinear members. Five families are supported:

* ``sill``      -- conjunctive logistic functions (products of scalar logistics),
* ``augsill``   -- a logistic block followed by a conjunctive-RBF block,
* ``summedrbf`` -- per-member sums of one-dimensional RBFs,
* ``legendre`` / ``hermite`` -- tensor-product orthogonal polynomials indexed by
  multi-indices of total degree >= 2 (constant and linear terms already live in
  the base rows).

A logistic/RBF member is its geometry and nothing else: one row of packed
(N, m) ``centers`` and ``steepness`` arrays and one entry of an (N,) ``is_rbf``
mask. ``Dictionary.from_packed`` builds a dictionary from them, and one kernel
(``member_values_packed``, ``member_sensitivities_packed``) evaluates the
members and their sensitivities from the same arrays. Model files store them
through ``dictionary_to_ini`` / ``dictionary_from_ini``.

All gradients are closed form; there is no autodiff anywhere in the package.
"""

from __future__ import annotations

import configparser
import itertools
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DataError,
    DimensionMismatchError,
    ParameterDomainError,
    UnsupportedFamilyError,
    ini_field,
)


class Kind(str, Enum):
    LOGISTIC = "logistic"
    RBF = "rbf"


class Family(str, Enum):
    SILL = "sill"
    AUGSILL = "augsill"
    SUMMED_RBF = "summedrbf"
    LEGENDRE = "legendre"
    HERMITE = "hermite"


POLYNOMIAL_FAMILIES = (Family.LEGENDRE, Family.HERMITE)
TRAINABLE_FAMILIES = (Family.SILL, Family.AUGSILL, Family.SUMMED_RBF)


def stable_logistic(t):
    """1/(1+exp(-t)) by numpy's ufuncs, in one float buffer and warning-free.

    -t goes into a new buffer, and np.exp, += 1 and np.reciprocal run in
    place on it. exp(-t) overflows to inf below t = -709.78, where the result
    is exactly 0.0; it is exactly 1.0 from t = 37 and 0.5 at +-0, and NaN
    stays NaN. A Python float or 0-d input returns np.float64. The bits
    follow numpy's SIMD dispatch of exp, and do not depend on the input's
    memory layout."""
    t = np.asarray(t, dtype=float)
    out = np.negative(t, out=np.empty_like(t))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)[()]


def stable_rbf(t):
    """exp(-t)/(1+exp(-t))^2 as lam(u) (1 - lam(u)) at u = -|t|, where nothing
    cancels: bitwise even in t, the kernel's RBF factor at center 0, steepness 1."""
    lam = stable_logistic(-np.abs(np.asarray(t, dtype=float)))
    return lam * (1.0 - lam)


# The scalar function of each factor kind, at center 0 and steepness 1.
_SCALAR_FORMS = {Kind.LOGISTIC: stable_logistic, Kind.RBF: stable_rbf}


def limit_keeps_first(c_l, a_l, c_j, a_j):
    """Per dimension, whether the steep limit of a product of two conjunctive
    logistics keeps the first member's own factor, broadcast over packed arrays
    whose last axis is the dimension: the larger center wins; on a center tie
    the larger steepness dominates the asymptotics and is kept."""
    return (c_l > c_j) | ((c_l == c_j) & (a_l >= a_j))


def limit_logistic_packed(c_l, a_l, c_j, a_j):
    """Steep-limit (centers, steepness) of products of conjunctive logistics."""
    take_l = limit_keeps_first(c_l, a_l, c_j, a_j)
    return np.where(take_l, c_l, c_j), np.where(take_l, a_l, a_j)


def rbf_branch_survives(c_log, c_rbf):
    """Steep-limit branch of a logistic-RBF product, broadcast over packed
    centers (last axis the dimension): True where the RBF survives, i.e. its
    center is at or above the logistic's in some dimension; else the limit is 0."""
    return np.any(c_rbf >= c_log, axis=-1)


def polynomial_multi_indices(m, count):
    """First `count` multi-indices of total degree >= 2, ordered by total
    degree then lexicographically. Degree-0/1 indices are excluded because the
    constant and linear terms already sit in the base rows."""
    out = []
    total = 2
    while len(out) < count:
        for idx in _compositions(total, m):
            out.append(idx)
            if len(out) == count:
                return tuple(out)
        total += 1
    return tuple(out)


def _compositions(total, m):
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, m - 1):
            yield (first,) + rest


class Dictionary:
    """A lifting dictionary: family tag, measurement dimension m, members.

    Sill, augsill and summedrbf, built by ``from_packed``, store their N
    members as read-only arrays, ``centers`` and ``steepness`` (N, m) and
    ``is_rbf`` (N,), logistic rows first: member j multiplies (summedrbf:
    adds) over dimensions i the logistic or RBF factor of
    steepness[j, i] * (y_i - centers[j, i]). Polynomial families, built by
    the constructor, store their multi-indices as one read-only (N, m)
    integer table ``degrees``. The arrays a family does not use are None.
    Instances are immutable.
    """

    def __init__(self, family, m, degrees):
        """Polynomial dictionary over multi-indices of length m and total
        degree >= 2."""
        self.family = Family(family)
        if self.family not in POLYNOMIAL_FAMILIES:
            raise UnsupportedFamilyError(
                f"{self.family.value} members are packed arrays; use Dictionary.from_packed")
        if m < 1:
            raise ParameterDomainError(f"m must be >= 1, got {m}")
        self.m = m
        self.centers = self.steepness = self.is_rbf = None
        degrees = tuple(degrees)
        for idx in degrees:
            if len(idx) != m:
                raise DimensionMismatchError(f"multi-index {idx} has length != m = {m}")
            if any(not isinstance(k, numbers.Real) or not float(k).is_integer() or k < 0
                   for k in idx):
                raise ParameterDomainError(f"bad multi-index {idx}")
            if sum(idx) < 2:
                raise ParameterDomainError(
                    f"multi-index {idx} duplicates the constant/linear rows"
                )
        self.degrees = np.array([[int(k) for k in idx] for idx in degrees],
                                dtype=np.int64).reshape(-1, m)
        self.degrees.setflags(write=False)

    @staticmethod
    def from_packed(family, centers, steepness, is_rbf):
        """Logistic/RBF dictionary over copies of (N, m) center and
        steepness arrays and an (N,) RBF mask."""
        d = object.__new__(Dictionary)
        d.family = Family(family)
        if d.family in POLYNOMIAL_FAMILIES:
            raise UnsupportedFamilyError("polynomial families have no centers")
        c = np.array(centers, dtype=float, order="C")
        a = np.array(steepness, dtype=float, order="C")
        rbf = np.array(is_rbf, dtype=bool)
        if c.ndim != 2 or c.shape[1] < 1 or a.shape != c.shape or rbf.shape != c.shape[:1]:
            raise DimensionMismatchError(f"need (N, m) centers and steepness and an (N,) "
                                         f"RBF mask, got {c.shape}, {a.shape}, {rbf.shape}")
        if not np.all(np.isfinite(c)):
            raise ParameterDomainError(f"center must be finite, got {c[~np.isfinite(c)][0]}")
        good = np.isfinite(a) & (a > 0)
        if not np.all(good):
            raise ParameterDomainError(f"steepness must be finite and > 0, got {a[~good][0]}")
        if d.family == Family.SUMMED_RBF and not np.all(rbf):
            raise ParameterDomainError("summedrbf members are all RBF")
        if d.family == Family.SILL and np.any(rbf):
            raise ParameterDomainError("sill members must all be logistic")
        if np.any(rbf[:-1] > rbf[1:]):
            raise ParameterDomainError("augsill members must list all logistic members first")
        for x in (c, a, rbf):
            x.setflags(write=False)
        d.centers, d.steepness, d.is_rbf = c, a, rbf
        d.m, d.degrees = c.shape[1], None
        return d

    @staticmethod
    def legendre(m, n_members):
        return Dictionary(Family.LEGENDRE, m, polynomial_multi_indices(m, n_members))

    @staticmethod
    def hermite(m, n_members):
        return Dictionary(Family.HERMITE, m, polynomial_multi_indices(m, n_members))

    @staticmethod
    def linear(m):
        """The trivial [1, y] dictionary (no nonlinear members)."""
        return Dictionary.from_packed(Family.SILL, np.zeros((0, m)), np.zeros((0, m)), ())

    # -- sizes ----------------------------------------------------------------

    @property
    def n_members(self):
        return len(self.is_rbf if self.degrees is None else self.degrees)

    @property
    def n_logistic(self):
        return 0 if self.is_rbf is None else self.n_members - self.n_rbf

    @property
    def n_rbf(self):
        return 0 if self.is_rbf is None else int(np.count_nonzero(self.is_rbf))

    @property
    def lifted_dim(self):
        return 1 + self.m + self.n_members

    def with_scaled_steepness(self, factor):
        """This dictionary with every steepness multiplied by factor: a copy,
        or the polynomial dictionary itself, which has none."""
        if factor <= 0 or not np.isfinite(factor):
            raise ParameterDomainError(f"factor must be finite and > 0: {factor}")
        if self.family in POLYNOMIAL_FAMILIES:
            return self
        return Dictionary.from_packed(self.family, self.centers, self.steepness * factor,
                                      self.is_rbf)


# -- evaluation ----------------------------------------------------------------


def _check_batch(d, Y):
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != d.m:
        raise DimensionMismatchError(
            f"expected points of shape (r, {d.m}), got {Y.shape}"
        )
    if not np.all(np.isfinite(Y)):
        raise ParameterDomainError("points must be finite")
    return Y


def _poly_1d(family, x, max_deg):
    """Values and derivatives of the 1-D polynomial ladder up to max_deg.

    x: array (...,); returns (vals, derivs) each of shape x.shape + (max_deg+1,).
    Legendre: (k+1)P_{k+1} = (2k+1)xP_k - kP_{k-1};  P'_{k+1} = P'_{k-1} + (2k+1)P_k.
    Hermite (physicists'): H_{k+1} = 2xH_k - 2kH_{k-1};  H'_k = 2kH_{k-1}.
    """
    x = np.asarray(x, dtype=float)
    vals = np.empty(x.shape + (max_deg + 1,))
    ders = np.empty_like(vals)
    vals[..., 0] = 1.0
    ders[..., 0] = 0.0
    if max_deg >= 1:
        if family == Family.LEGENDRE:
            vals[..., 1] = x
            ders[..., 1] = 1.0
        else:
            vals[..., 1] = 2.0 * x
            ders[..., 1] = 2.0
    for k in range(1, max_deg):
        if family == Family.LEGENDRE:
            vals[..., k + 1] = (
                (2 * k + 1) * x * vals[..., k] - k * vals[..., k - 1]
            ) / (k + 1)
            ders[..., k + 1] = ders[..., k - 1] + (2 * k + 1) * vals[..., k]
        else:
            vals[..., k + 1] = 2.0 * x * vals[..., k] - 2.0 * k * vals[..., k - 1]
            ders[..., k + 1] = 2.0 * (k + 1) * vals[..., k]
    return vals, ders


def _poly_members(d, Y, jacobian=False):
    """Polynomial member values (r, N), or with jacobian their state-Jacobians
    (r, N, m): each factor is one gather of the 1-D ladders by the degree
    table, multiplied over dimensions left to right. States whose lift leaves
    the float range raise DataError, without numpy's overflow warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals, ders = _poly_1d(d.family, Y, int(d.degrees.max(initial=0)))
        dims, deg = np.arange(d.m)[:, None], d.degrees.T
        fac = vals[:, dims, deg]  # (r, m, N)
        if not jacobian:
            out = np.multiply.reduce(fac, axis=1)
        else:
            dfac = ders[:, dims, deg]
            out = np.stack([dfac[:, i] * np.multiply.reduce(np.delete(fac, i, axis=1), axis=1)
                            for i in range(d.m)], axis=-1)
    if not np.all(np.isfinite(out)):
        raise DataError(f"the {d.family.value} lift of the data overflows the float range: "
                        f"states reach |y| = {np.abs(Y).max():.3g}; rescale the data")
    return out


def member_values_packed(family, c, a, rbf, Y):
    """Nonlinear member values from packed (N, m) parameter arrays.

    Low-level core shared with the trainer's hot path; Y is (r, m), the
    result (r, N). RBF rows of rbf must follow every logistic row, the order
    Dictionary enforces: the kernel applies the RBF factor to the tail."""
    f, _ = _factors(c, a, rbf, Y)
    return _reduce_factors(family, f)[0]


def _factors(c, a, rbf, Y, weights=False):
    """Scalar factors f of every (dimension, row, member) and, if weights,
    their weights w = d(log f)/dt (else None): C-ordered (m, r, N) arrays, so
    that numpy's inner loop runs over the members. At t = a (y - c) a
    logistic row gets lam(t) and 1 - lam(t); an RBF row, after every logistic
    row, gets rho = lam(u) (1 - lam(u)) at u = -|t| <= 0, where nothing
    cancels, and 1 - 2 lam(t) as (1 - lam(u)) - lam(u) with the sign of -t.
    rho is bitwise even in t, its weight exactly odd."""
    n_log = len(rbf) - np.count_nonzero(rbf)
    Yt, cT = np.ascontiguousarray(Y.T), np.ascontiguousarray(c.T)
    t = Yt[:, :, None] - cT[:, None, :]
    tail = t[..., n_log:]
    np.abs(tail, out=tail)
    with np.errstate(over="ignore"):  # lam(+-inf) is the saturated factor
        t *= np.where(rbf, -a.T, a.T)[:, None, :]  # -a |y - c| = -|t| on the RBF rows
    f = stable_logistic(t)
    f_rbf = f[..., n_log:]
    lo = 0 if weights else n_log  # 1 - lam: every row's weight, or the RBF rows' rho
    np.subtract(1.0, f[..., lo:], out=t[..., lo:])
    odd = np.subtract(tail, f_rbf) if weights else None  # 1 - 2 lam(u)
    f_rbf *= tail
    if not weights:
        return f, None
    np.copysign(odd, cT[:, None, n_log:] - Yt[:, :, None], out=tail)  # a > 0: sign of -t
    return f, t


def _reduce_factors(family, f):
    """Member values (r, N) from the (m, r, N) factors, and what each
    factor's weight multiplies into S: summedrbf sums the factors, with the
    bits of numpy's sum over the last axis of an (r, N, m) array (pairwise
    from 8 terms on), and takes the factor itself; the conjunctive families
    multiply them, left to right, and take the product."""
    if family != Family.SUMMED_RBF:
        vals = np.multiply.reduce(f, axis=0)
        return vals, vals
    if len(f) < 8:
        return np.add.reduce(f, axis=0), f
    return np.ascontiguousarray(np.moveaxis(f, 0, -1)).sum(axis=2), f


def member_sensitivities_packed(family, c, a, rbf, Y):
    """Member values (r, N) plus the sensitivity factor S, laid out
    (m, r, N) with the dimension first, where

        d(member_j)/dy_i      =  steepness[j,i] * S[i,t,j]
        d(member_j)/dmu_ji    = -steepness[j,i] * S[i,t,j]
        d(member_j)/dalpha_ji = (y_i - center[j,i]) * S[i,t,j]

    S = w_i * value for conjunctive members and w_i * factor_i for summedrbf,
    with w = (1-lam) (logistic) or (1-2lam) (RBF). As in
    member_values_packed, RBF rows must follow every logistic row.
    """
    f, w = _factors(c, a, rbf, Y, weights=True)
    vals, scale = _reduce_factors(family, f)
    w *= scale
    return vals, w


def _member_values(d, Y):
    """Nonlinear member values at a batch of points: (r, m) -> (r, N)."""
    if d.n_members == 0:
        return np.zeros((Y.shape[0], 0))
    if d.family in POLYNOMIAL_FAMILIES:
        return _poly_members(d, Y)
    return member_values_packed(d.family, d.centers, d.steepness, d.is_rbf, Y)


def assemble_lift(Y, vals):
    """Lifted rows [1, y, member values] from (r, m) points and (r, N) values."""
    r, m = Y.shape
    psi = np.empty((r, 1 + m + vals.shape[1]))
    psi[:, 0] = 1.0
    psi[:, 1 : 1 + m] = Y
    psi[:, 1 + m :] = vals
    return psi


def lift_many(d, Y):
    """Lift a batch of points: (r, m) -> (r, 1+m+N)."""
    Y = _check_batch(d, Y)
    return assemble_lift(Y, _member_values(d, Y))


def lift(d, y):
    """Lift one point: (m,) -> (1+m+N,). First entry 1, then y verbatim."""
    y = np.asarray(y, dtype=float)
    if y.shape != (d.m,):
        raise DimensionMismatchError(f"expected y of shape ({d.m},), got {y.shape}")
    return lift_many(d, y[None, :])[0]


def lift_jacobian_many(d, Y):
    """Batch state-Jacobians of the lift: (r, m) -> (r, 1+m+N, m)."""
    Y = _check_batch(d, Y)
    r = Y.shape[0]
    J = np.zeros((r, d.lifted_dim, d.m))
    J[:, 1 : 1 + d.m, :] = np.eye(d.m)
    if d.n_members == 0:
        return J
    if d.family in POLYNOMIAL_FAMILIES:
        J[:, 1 + d.m :, :] = _poly_members(d, Y, jacobian=True)
        return J
    _, S = member_sensitivities_packed(d.family, d.centers, d.steepness, d.is_rbf, Y)
    J[:, 1 + d.m :, :] = np.moveaxis(d.steepness.T[:, None, :] * S, 0, -1)
    return J


def lift_jacobian(d, y):
    """State-Jacobian of the lift at one point: rows d(psi_k)/dy."""
    y = np.asarray(y, dtype=float)
    if y.shape != (d.m,):
        raise DimensionMismatchError(f"expected y of shape ({d.m},), got {y.shape}")
    return lift_jacobian_many(d, y[None, :])[0]


@dataclass
class ParamGradients:
    """Closed-form derivatives of each nonlinear member w.r.t. its own
    center/steepness entries; arrays of shape (N, m) (batched: (r, N, m))."""

    d_center: np.ndarray
    d_steepness: np.ndarray


def _param_sensitivities(c, a, x, s):
    """d(member)/d(center) = -a*S and d(member)/d(steepness) = (y - c)*S
    (see member_sensitivities_packed) at the (m, rows) points x, stacked
    into one (2m, rows, N) array so that one contraction serves both
    parameters. c and a are (m, N), s the kernel's (m, rows, N) factor."""
    d_par = np.empty((2,) + s.shape)
    np.multiply(-a[:, None, :], s, out=d_par[0])
    np.multiply(x[:, :, None] - c[:, None, :], s, out=d_par[1])
    return d_par.reshape(2 * len(c), *s.shape[1:])


def param_gradients_many(d, Y):
    """Batch parameter gradients: arrays of shape (r, N, m)."""
    if d.family in POLYNOMIAL_FAMILIES:
        raise UnsupportedFamilyError(
            f"{d.family.value} has no trainable shape parameters"
        )
    Y = _check_batch(d, Y)
    _, S = member_sensitivities_packed(d.family, d.centers, d.steepness, d.is_rbf, Y)
    d_par = _param_sensitivities(d.centers.T, d.steepness.T, Y.T, S)
    return ParamGradients(d_center=np.moveaxis(d_par[: d.m], 0, -1),
                          d_steepness=np.moveaxis(d_par[d.m :], 0, -1))


def param_gradients(d, y):
    """Parameter gradients at one point: arrays of shape (N, m)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (d.m,):
        raise DimensionMismatchError(f"expected y of shape ({d.m},), got {y.shape}")
    g = param_gradients_many(d, y[None, :])
    return ParamGradients(g.d_center[0], g.d_steepness[0])


# -- serialization ---------------------------------------------------------------


def _fmt_floats(values):
    return " ".join(repr(float(v)) for v in values)


def dictionary_to_ini(d):
    """ConfigParser holding d's [dictionary] and [member j] sections; floats
    as shortest repr, so reading it back is exact."""
    cp = configparser.ConfigParser()
    cp["dictionary"] = {
        "family": d.family.value,
        "m": str(d.m),
        "n_members": str(d.n_members),
        "n_logistic": str(d.n_logistic),
        "n_rbf": str(d.n_rbf),
    }
    for j in range(d.n_members):
        sec = f"member {j}"
        if d.family in POLYNOMIAL_FAMILIES:
            cp[sec] = {"degrees": " ".join(map(str, d.degrees[j].tolist()))}
        else:
            cp[sec] = {
                "kind": (Kind.RBF if d.is_rbf[j] else Kind.LOGISTIC).value,
                "centers": _fmt_floats(d.centers[j]),
                "steepnesses": _fmt_floats(d.steepness[j]),
            }
    return cp


def dictionary_from_ini(cp, source):
    """Dictionary from a parsed dictionary_to_ini INI; a missing or malformed
    field raises DataError naming source, the file it came from, and the
    field."""

    def field(section, key, parse):
        return ini_field(cp, section, key, parse, source)

    def floats(v):
        x = [float(t) for t in v.split()]
        if len(x) != m:
            raise ValueError(f"need {m} numbers, got {len(x)}")
        return x

    family = field("dictionary", "family", Family)
    m, n = field("dictionary", "m", int), field("dictionary", "n_members", int)
    if m < 1 or n < 0:
        raise DataError(f"{source}: [dictionary] needs m >= 1 and n_members >= 0")
    # Names stop at the first missing section, so a huge count fails at once.
    sections = list(itertools.takewhile(cp.has_section, (f"member {j}" for j in range(n))))
    if len(sections) < n:
        raise DataError(f"{source}: [dictionary] n_members = {n}, but [member {len(sections)}] "
                        "is missing")
    if family in POLYNOMIAL_FAMILIES:
        d = Dictionary(family, m, [
            field(sec, "degrees", lambda v: tuple(int(k) for k in v.split()))
            for sec in sections
        ])
    else:
        c = [field(sec, "centers", floats) for sec in sections]
        a = [field(sec, "steepnesses", floats) for sec in sections]
        rbf = [family == Family.SUMMED_RBF or field(sec, "kind", Kind) == Kind.RBF
               for sec in sections]
        d = Dictionary.from_packed(family, np.reshape(c, (n, m)), np.reshape(a, (n, m)), rbf)
    if (d.n_logistic != field("dictionary", "n_logistic", int)
            or d.n_rbf != field("dictionary", "n_rbf", int)):
        raise ParameterDomainError("member kinds disagree with declared counts")
    return d
