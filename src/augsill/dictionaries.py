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

All gradients are closed form; there is no autodiff anywhere in the package.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .errors import (
    DimensionMismatchError,
    ParameterDomainError,
    UnsupportedFamilyError,
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
    """1/(1+exp(-t)) evaluated without overflow for any finite t."""
    return expit(np.asarray(t, dtype=float))


def stable_rbf(t):
    """exp(-t)/(1+exp(-t))^2, computed as lam*(1-lam) of the stable logistic."""
    lam = stable_logistic(t)
    return lam * (1.0 - lam)


@dataclass(frozen=True)
class ScalarBasisParams:
    """Center and steepness of one scalar logistic or RBF factor."""

    center: float
    steepness: float

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ParameterDomainError(f"center must be finite, got {self.center}")
        if not np.isfinite(self.steepness) or self.steepness <= 0:
            raise ParameterDomainError(
                f"steepness must be finite and > 0, got {self.steepness}"
            )


@dataclass(frozen=True)
class ConjunctiveFunction:
    """Product over dimensions of scalar logistic or RBF factors."""

    kind: Kind
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if not self.params:
            raise ParameterDomainError("conjunctive function needs >= 1 factor")
        for p in self.params:
            if not isinstance(p, ScalarBasisParams):
                raise ParameterDomainError("params must be ScalarBasisParams")

    @property
    def m(self):
        return len(self.params)

    @property
    def centers(self):
        return np.array([p.center for p in self.params])

    @property
    def steepnesses(self):
        return np.array([p.steepness for p in self.params])


def eval_scalar_basis(kind, y_i, p):
    """Evaluate one scalar factor. Logistic lands in (0,1), RBF in (0, 1/4]."""
    if not np.isfinite(y_i):
        raise ParameterDomainError(f"input must be finite, got {y_i}")
    t = p.steepness * (y_i - p.center)
    if kind == Kind.LOGISTIC:
        return float(stable_logistic(t))
    if kind == Kind.RBF:
        return float(stable_rbf(t))
    raise ParameterDomainError(f"unknown kind {kind!r}")


def eval_conjunctive(f, y):
    """Product of f's scalar factors along each coordinate of y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (f.m,):
        raise DimensionMismatchError(f"expected y of shape ({f.m},), got {y.shape}")
    return float(conjunctive_values(f, y[None, :])[0])


def product_limit_logistic(theta_l, theta_j):
    """Steep-limit parameters of a product of two conjunctive logistics.

    Per dimension the larger center wins and carries its own steepness; on a
    center tie the larger steepness dominates the asymptotics and is kept.
    """
    if theta_l.kind != Kind.LOGISTIC or theta_j.kind != Kind.LOGISTIC:
        raise ParameterDomainError("both members must be logistic")
    if theta_l.m != theta_j.m:
        raise DimensionMismatchError("dimension mismatch between members")
    params = []
    for pl, pj in zip(theta_l.params, theta_j.params):
        if pl.center > pj.center:
            params.append(pl)
        elif pj.center > pl.center:
            params.append(pj)
        else:
            params.append(pl if pl.steepness >= pj.steepness else pj)
    return ConjunctiveFunction(Kind.LOGISTIC, tuple(params))


def h_function(y, theta_l, theta_k):
    """Steep-limit of the product of a conjunctive logistic and a conjunctive RBF.

    Returns P(y; theta_k) when the RBF center is >= the logistic center in at
    least one coordinate, and 0 when it is strictly below in every coordinate.
    """
    if theta_l.kind != Kind.LOGISTIC:
        raise ParameterDomainError("theta_l must be logistic")
    if theta_k.kind != Kind.RBF:
        raise ParameterDomainError("theta_k must be rbf")
    if theta_l.m != theta_k.m:
        raise DimensionMismatchError("dimension mismatch between members")
    y = np.asarray(y, dtype=float)
    if y.shape != (theta_l.m,):
        raise DimensionMismatchError(
            f"expected y of shape ({theta_l.m},), got {y.shape}"
        )
    if np.any(theta_k.centers >= theta_l.centers):
        return eval_conjunctive(theta_k, y)
    return 0.0


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


@dataclass(eq=False)
class Dictionary:
    """A lifting dictionary: family tag, measurement dimension, member payload.

    The payload type depends on the family: ConjunctiveFunction tuples for
    sill/augsill, per-dimension ScalarBasisParams tuples for summedrbf, and
    integer multi-indices for the polynomial families. Treat instances as
    immutable; training code builds new dictionaries rather than editing one.
    """

    family: Family
    m: int
    members: tuple

    def __post_init__(self):
        self.family = Family(self.family)
        self.members = tuple(self.members)
        if self.m < 1:
            raise ParameterDomainError(f"m must be >= 1, got {self.m}")
        self._validate_members()
        self._cache = None

    def _validate_members(self):
        if self.family in (Family.SILL, Family.AUGSILL):
            seen_rbf = False
            for f in self.members:
                if not isinstance(f, ConjunctiveFunction):
                    raise ParameterDomainError("members must be ConjunctiveFunction")
                if f.m != self.m:
                    raise DimensionMismatchError(
                        f"member dimension {f.m} != dictionary m {self.m}"
                    )
                if self.family == Family.SILL and f.kind != Kind.LOGISTIC:
                    raise ParameterDomainError("sill members must all be logistic")
                if f.kind == Kind.RBF:
                    seen_rbf = True
                elif seen_rbf:
                    raise ParameterDomainError(
                        "augsill members must list all logistic members first"
                    )
        elif self.family == Family.SUMMED_RBF:
            for ps in self.members:
                if len(ps) != self.m or not all(
                    isinstance(p, ScalarBasisParams) for p in ps
                ):
                    raise ParameterDomainError(
                        f"each summedrbf member needs {self.m} ScalarBasisParams"
                    )
        else:
            for idx in self.members:
                if len(idx) != self.m:
                    raise DimensionMismatchError(
                        f"multi-index {idx} has length != m = {self.m}"
                    )
                if any(int(k) != k or k < 0 for k in idx):
                    raise ParameterDomainError(f"bad multi-index {idx}")
                if sum(idx) < 2:
                    raise ParameterDomainError(
                        f"multi-index {idx} duplicates the constant/linear rows"
                    )

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def sill(members, m=None):
        m = m if m is not None else members[0].m
        return Dictionary(Family.SILL, m, tuple(members))

    @staticmethod
    def augsill(members, m=None):
        m = m if m is not None else members[0].m
        return Dictionary(Family.AUGSILL, m, tuple(members))

    @staticmethod
    def summed_rbf(members, m=None):
        m = m if m is not None else len(members[0])
        return Dictionary(Family.SUMMED_RBF, m, tuple(tuple(ps) for ps in members))

    @staticmethod
    def legendre(m, n_members):
        return Dictionary(Family.LEGENDRE, m, polynomial_multi_indices(m, n_members))

    @staticmethod
    def hermite(m, n_members):
        return Dictionary(Family.HERMITE, m, polynomial_multi_indices(m, n_members))

    @staticmethod
    def linear(m):
        """The trivial [1, y] dictionary (no nonlinear members)."""
        return Dictionary(Family.SILL, m, ())

    @staticmethod
    def from_packed(family, centers, steepness, n_logistic):
        """Dictionary over (N, m) center and steepness arrays. Conjunctive
        families take rows below n_logistic as logistic members, the rest as
        RBF members; summedrbf ignores n_logistic."""
        params = [
            tuple(ScalarBasisParams(c, s) for c, s in zip(crow, srow))
            for crow, srow in zip(centers, steepness)
        ]
        if family == Family.SUMMED_RBF:
            return Dictionary(family, centers.shape[1], params)
        members = [
            ConjunctiveFunction(Kind.LOGISTIC if j < n_logistic else Kind.RBF, ps)
            for j, ps in enumerate(params)
        ]
        return Dictionary(family, centers.shape[1], members)

    # -- sizes ----------------------------------------------------------------

    @property
    def n_members(self):
        return len(self.members)

    @property
    def n_logistic(self):
        if self.family in (Family.SILL, Family.AUGSILL):
            return sum(1 for f in self.members if f.kind == Kind.LOGISTIC)
        return 0

    @property
    def n_rbf(self):
        if self.family in (Family.SILL, Family.AUGSILL):
            return sum(1 for f in self.members if f.kind == Kind.RBF)
        if self.family == Family.SUMMED_RBF:
            return len(self.members)
        return 0

    @property
    def lifted_dim(self):
        return 1 + self.m + len(self.members)

    # -- packed parameter arrays (internal) -----------------------------------

    def _packed(self):
        """(centers, steepnesses, is_rbf) as (N, m) arrays for non-polynomial
        families; cached because lifting is the package's hot path."""
        if self._cache is None:
            if self.family in POLYNOMIAL_FAMILIES:
                raise UnsupportedFamilyError("polynomial families have no centers")
            summed = self.family == Family.SUMMED_RBF
            params = [f if summed else f.params for f in self.members]
            c = np.array([[p.center for p in ps] for ps in params]).reshape(-1, self.m)
            a = np.array([[p.steepness for p in ps] for ps in params]).reshape(-1, self.m)
            rbf = np.array([summed or f.kind == Kind.RBF for f in self.members], dtype=bool)
            self._cache = (c, a, rbf)
        return self._cache

    def with_scaled_steepness(self, factor):
        """Copy of this dictionary with every steepness multiplied by factor."""
        if factor <= 0 or not np.isfinite(factor):
            raise ParameterDomainError(f"factor must be finite and > 0: {factor}")
        if self.family in POLYNOMIAL_FAMILIES:
            return Dictionary(self.family, self.m, self.members)
        c, a, _ = self._packed()
        return Dictionary.from_packed(self.family, c, a * factor, self.n_logistic)


def scale_steepness(f, factor):
    """ConjunctiveFunction with all steepnesses multiplied by factor."""
    return ConjunctiveFunction(
        f.kind,
        tuple(ScalarBasisParams(p.center, p.steepness * factor) for p in f.params),
    )


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


def _poly_tables(d, Y):
    max_deg = max((max(idx) for idx in d.members), default=0)
    return _poly_1d(d.family, Y, max_deg)


def member_values_packed(family, c, a, rbf, Y):
    """Nonlinear member values from packed (N, m) parameter arrays.

    Low-level core shared with the trainer's hot path; Y is (r, m), the
    result (r, N)."""
    lam = stable_logistic(a[None] * (Y[:, None, :] - c[None]))
    if family == Family.SUMMED_RBF:
        return (lam * (1.0 - lam)).sum(axis=2)
    fac = np.where(rbf[None, :, None], lam * (1.0 - lam), lam)
    return fac.prod(axis=2)


def conjunctive_values(f, Y):
    """Values of one conjunctive member at an (r, m) point batch: (r,)."""
    rbf = np.array([f.kind == Kind.RBF])
    # Any conjunctive family selects the product form; rbf picks the factor.
    return member_values_packed(
        Family.AUGSILL, f.centers[None], f.steepnesses[None], rbf, Y
    )[:, 0]


def member_sensitivities_packed(family, c, a, rbf, Y):
    """Member values plus the per-coordinate sensitivity factor S, where

        d(member_j)/dy_i      =  steepness[j,i] * S[t,j,i]
        d(member_j)/dmu_ji    = -steepness[j,i] * S[t,j,i]
        d(member_j)/dalpha_ji = (y_i - center[j,i]) * S[t,j,i]

    For conjunctive members S = w_i * value with w = (1-lam) (logistic) or
    (1-2lam) (RBF); for summedrbf S_i = rho_i*(1-2lam_i).
    """
    lam = stable_logistic(a[None] * (Y[:, None, :] - c[None]))
    if family == Family.SUMMED_RBF:
        rho = lam * (1.0 - lam)
        return rho.sum(axis=2), rho * (1.0 - 2.0 * lam)
    fac = np.where(rbf[None, :, None], lam * (1.0 - lam), lam)
    vals = fac.prod(axis=2)
    w = np.where(rbf[None, :, None], 1.0 - 2.0 * lam, 1.0 - lam)
    return vals, w * vals[:, :, None]


def _member_values(d, Y):
    """Nonlinear member values at a batch of points: (r, m) -> (r, N)."""
    r = Y.shape[0]
    if not d.members:
        return np.zeros((r, 0))
    if d.family in POLYNOMIAL_FAMILIES:
        vals, _ = _poly_tables(d, Y)
        cols = [
            vals[:, np.arange(d.m), np.array(idx)].prod(axis=1) for idx in d.members
        ]
        return np.stack(cols, axis=1)
    c, a, rbf = d._packed()
    return member_values_packed(d.family, c, a, rbf, Y)


def _member_sensitivities(d, Y):
    c, a, rbf = d._packed()
    return member_sensitivities_packed(d.family, c, a, rbf, Y)


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
    if not d.members:
        return J
    if d.family in POLYNOMIAL_FAMILIES:
        vals, ders = _poly_tables(d, Y)
        dims = np.arange(d.m)
        for j, idx in enumerate(d.members):
            fac = vals[:, dims, np.array(idx)]  # (r, m)
            dfac = ders[:, dims, np.array(idx)]
            for i in range(d.m):
                others = fac[:, [q for q in range(d.m) if q != i]].prod(axis=1)
                J[:, 1 + d.m + j, i] = dfac[:, i] * others
        return J
    _, a, _ = d._packed()
    _, S = _member_sensitivities(d, Y)
    J[:, 1 + d.m :, :] = a[None] * S
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


def param_gradients_many(d, Y):
    """Batch parameter gradients: arrays of shape (r, N, m)."""
    if d.family in POLYNOMIAL_FAMILIES:
        raise UnsupportedFamilyError(
            f"{d.family.value} has no trainable shape parameters"
        )
    Y = _check_batch(d, Y)
    c, a, _ = d._packed()
    _, S = _member_sensitivities(d, Y)
    return ParamGradients(
        d_center=-a[None] * S, d_steepness=(Y[:, None, :] - c[None]) * S
    )


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


def dictionary_to_text(d):
    """Serialize to INI-style text, round-trip exact via shortest repr."""
    cp = configparser.ConfigParser()
    cp["dictionary"] = {
        "family": d.family.value,
        "m": str(d.m),
        "n_members": str(d.n_members),
        "n_logistic": str(d.n_logistic),
        "n_rbf": str(d.n_rbf),
    }
    for j, member in enumerate(d.members):
        sec = f"member {j}"
        if d.family in POLYNOMIAL_FAMILIES:
            cp[sec] = {"degrees": " ".join(str(k) for k in member)}
        elif d.family == Family.SUMMED_RBF:
            cp[sec] = {
                "kind": Kind.RBF.value,
                "centers": _fmt_floats(p.center for p in member),
                "steepnesses": _fmt_floats(p.steepness for p in member),
            }
        else:
            cp[sec] = {
                "kind": member.kind.value,
                "centers": _fmt_floats(member.centers),
                "steepnesses": _fmt_floats(member.steepnesses),
            }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def dictionary_from_text(text):
    """Inverse of dictionary_to_text."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    head = cp["dictionary"]
    family = Family(head["family"])
    m = int(head["m"])
    n = int(head["n_members"])
    members = []
    for j in range(n):
        sec = cp[f"member {j}"]
        if family in POLYNOMIAL_FAMILIES:
            members.append(tuple(int(k) for k in sec["degrees"].split()))
            continue
        centers = [float(v) for v in sec["centers"].split()]
        steeps = [float(v) for v in sec["steepnesses"].split()]
        params = tuple(ScalarBasisParams(c, s) for c, s in zip(centers, steeps))
        if family == Family.SUMMED_RBF:
            members.append(params)
        else:
            members.append(ConjunctiveFunction(Kind(sec["kind"]), params))
    d = Dictionary(family, m, tuple(members))
    if d.n_logistic != int(head["n_logistic"]) or d.n_rbf != int(head["n_rbf"]):
        raise ParameterDomainError("member kinds disagree with declared counts")
    return d


def save_dictionary(d, path):
    with open(path, "w") as fh:
        fh.write(dictionary_to_text(d))


def load_dictionary(path):
    with open(path) as fh:
        return dictionary_from_text(fh.read())
