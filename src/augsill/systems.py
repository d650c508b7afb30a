"""Planar benchmark systems, trajectory integration, and snapshot datasets.

Four two-state vector fields with fixed literature constants, a classical RK4
integrator with a fixed internal substep (deterministic, no adaptivity), and
helpers that assemble (input, target) snapshot matrices for the solver. Each
field is evaluated by one kernel per system, built once per batch by _field
on component-major (2, r) states; the integrator and system_rhs share it.

The default substep, DEFAULT_SUBSTEP = 1e-2 (5 substeps per 0.05 recorded
step), is held to an error budget: each system's default ensemble (20
trajectories, 200 steps of 0.05, seed 0) stays within 1e-6 of the same
ensemble at a 40x finer substep, in max |got - ref| / max |ref|.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    DomainError,
    ParameterDomainError,
    finite_floats,
    ini_field,
    positive_float,
    positive_int,
    read_csv,
    read_ini,
)

DIVERGENCE_LIMIT = 1e9
# The RK4 substep bound, set by the module docstring's 1e-6 error budget.
# Measured against it: vanderpol 2.0e-8, duffing 1.1e-7, predatorprey 3.7e-11,
# toggleswitch 2.2e-12 (1e-3 gave at most 9.7e-12 at 10x the substeps).
DEFAULT_SUBSTEP = 1e-2
# The most substeps one recorded step may take. A step needing more is a
# mistaken dt, not a simulation anyone waits for: at about 24 us a substep
# (one Xeon core), 10^6 substeps already take 24 s per recorded step.
MAX_SUBSTEPS_PER_STEP = 10**6
# Every vector field and the trajectory CSV (t, x1, x2) are planar.
STATE_DIM = 2


class SystemId(str, Enum):
    VAN_DER_POL = "vanderpol"
    DUFFING = "duffing"
    PREDATOR_PREY = "predatorprey"
    TOGGLE_SWITCH = "toggleswitch"


# Default constants, in the order each right-hand side consumes them.
DEFAULT_CONSTANTS = {
    SystemId.VAN_DER_POL: (1.0,),
    SystemId.DUFFING: (0.0, -1.0, 1.0),
    SystemId.PREDATOR_PREY: (1.1, 0.5, 0.1, 0.2),
    SystemId.TOGGLE_SWITCH: (2.5, 1.5, 1.4, 1.1, 0.25),
}

# Initial-condition boxes covering the attractors at the default constants.
DEFAULT_IC_BOX = {
    SystemId.VAN_DER_POL: ((-2.0, 2.0), (-2.0, 2.0)),
    SystemId.DUFFING: ((-2.0, 2.0), (-2.0, 2.0)),
    SystemId.PREDATOR_PREY: ((0.5, 3.0), (0.5, 3.0)),
    SystemId.TOGGLE_SWITCH: ((0.0, 4.0), (0.0, 4.0)),
}


@dataclass(frozen=True)
class SystemSpec:
    id: SystemId
    constants: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "id", SystemId(self.id))
        if self.constants is None:
            object.__setattr__(self, "constants", DEFAULT_CONSTANTS[self.id])
        else:
            object.__setattr__(self, "constants", tuple(self.constants))
        if len(self.constants) != len(DEFAULT_CONSTANTS[self.id]):
            raise ParameterDomainError(
                f"{self.id.value} takes {len(DEFAULT_CONSTANTS[self.id])} constants"
            )

    @staticmethod
    def default(system_id):
        return SystemSpec(SystemId(system_id))


def _field(s, r):
    """The vector field of s as a kernel f(x, k) on r component-major states:
    x and k are (2, r) arrays of rows x1, x2, and f writes the field at x into
    k (not overlapping x) and returns k. Built once per batch with constants
    and scratch rows, a call runs only positional-out ufuncs, nested as in the
    textbook expression and in its association (c4 * x1 * x1 is (c4 * x1) * x1);
    all are elementwise, so a state's bits do not depend on its batch."""
    mul, add, sub = np.multiply, np.add, np.subtract
    t, u = np.empty(r), np.empty((2, r))
    if s.id == SystemId.VAN_DER_POL:
        (c1,) = s.constants

        def f(x, k):  # x2, c1 * (1 - x1 * x1) * x2 - x1
            x1 = x[0]
            sub(mul(mul(c1, sub(1.0, mul(x1, x1, t), t), t), x[1], t), x1, k[1])
            k[0] = x[1]
            return k
    elif s.id == SystemId.DUFFING:
        c2, c3, c4 = s.constants
        coef, (u0, u1) = np.array([[c4], [-c2]]), u

        def f(x, k):  # x2, -c2 * x2 - x1 * (c3 + c4 * x1 * x1)
            x1 = x[0]
            mul(coef, x, u)  # c4 * x1, -c2 * x2
            sub(u1, mul(x1, add(c3, mul(u0, x1, t), t), t), k[1])
            k[0] = x[1]
            return k
    elif s.id == SystemId.PREDATOR_PREY:
        c5, c6, c7, c8 = s.constants
        coef3, coef2 = np.array([[c6], [c7]]), np.array([[c5], [c8]])
        w = np.empty((4, r))  # c6 x1 x2, c7 x1 x2, c5 x1, c8 x2: rows 2, 1 minus 0, 3
        three, two, lead, lag = w[:2], w[2:], w[2:0:-1], w[::3]

        def f(x, k):  # c5 * x1 - c6 * x1 * x2, c7 * x1 * x2 - c8 * x2
            mul(mul(coef3, x[0], three), x[1], three)
            mul(coef2, x, two)
            return sub(lead, lag, k)
    else:
        c9, c10, c11, c12, c13 = s.constants
        coef, (u0, u1) = np.array([[c9], [c10]]), u

        def f(x, k):  # c9 / (1 + x2 ** c11) - c13 * x1, c10 / (1 + x1 ** c12) - c13 * x2
            if x.min() < 0.0:  # like (x < 0).any(): False on NaN and -0.0
                raise DomainError(
                    "toggleswitch state must be nonnegative (non-integer Hill powers)"
                )
            # A power per row with a scalar exponent, as in x2 ** c11: numpy picks its
            # pow loop by layout, and a (2, 1) exponent changes a lone state's bits.
            np.power(x[1], c11, u0)
            np.power(x[0], c12, u1)
            np.divide(coef, add(1.0, u, u), u)
            return sub(u, mul(c13, x, k), k)
    return f


def system_rhs(s, x):
    """Vector field at one state."""
    x = np.asarray(x, dtype=float)
    if x.shape != (STATE_DIM,):
        raise DomainError(f"expected state of shape ({STATE_DIM},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"non-finite state {x}")
    return _field(s, 1)(x[:, None], np.empty((STATE_DIM, 1)))[:, 0]


@dataclass
class Trajectory:
    dt: float
    states: np.ndarray  # (steps+1, STATE_DIM)
    system: SystemSpec
    seed_provenance: int = -1

    def __len__(self):
        return self.states.shape[0]


def _rk4_batch(s, X0, dt, steps, max_substep, row_name=None):
    """RK4 on a batch of initial states X0, (r, 2); returns (steps+1, r, 2).

    Each substep is x + (h/6)(k1 + 2 k2 + 2 k3 + k4) with the stages at
    x + (h/2) k1, x + (h/2) k2 and x + h k3, evaluated in that operation
    order on component-major (2, r) state and stage buffers by the one field
    kernel _field builds for the batch. A state leaving DIVERGENCE_LIMIT raises
    DivergenceError naming the system, the step and, when row_name is given,
    row_name(i) of the first row i out of bounds. Overflow inside a step is
    silent: the inf or nan it leaves fails the bound at that step's check.
    max_substep must be finite and > 0, and dt may need at most
    MAX_SUBSTEPS_PER_STEP substeps of it (DomainError otherwise)."""
    if not (math.isfinite(max_substep) and max_substep > 0):
        raise DomainError(f"max_substep must be finite and > 0, got {max_substep}")
    ratio = dt / max_substep - 1e-12
    if not ratio <= MAX_SUBSTEPS_PER_STEP:
        raise DomainError(f"dt {dt} needs more than {MAX_SUBSTEPS_PER_STEP} RK4 substeps "
                          f"of at most {max_substep} per step")
    n_sub = max(1, math.ceil(ratio))
    h = dt / n_sub
    out = np.empty((steps + 1,) + X0.shape)
    out[0] = X0
    x = X0.T.copy()  # a copy, never a view: the caller's X0 stays as it was
    k, stage = np.empty((4,) + x.shape), np.empty_like(x)
    (k1, k2, k3, k4), k23 = k, k[1:3]
    f, mul, add, total = _field(s, x.shape[1]), np.multiply, np.add, np.add.reduce
    for step in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n_sub):
                f(add(x, mul(f(x, k1), 0.5 * h, stage), stage), k2)
                f(add(x, mul(k2, 0.5 * h, stage), stage), k3)
                f(add(x, mul(k3, h, stage), stage), k4)
                mul(k23, 2.0, k23)  # total sums in order: ((k1 + 2 k2) + 2 k3) + k4
                add(x, mul(total(k, 0, None, stage), h / 6.0, stage), x)
        ok = (np.abs(x) <= DIVERGENCE_LIMIT).all(axis=0)
        if not ok.all():
            what = "state" if row_name is None else row_name(int(np.argmin(ok)))
            raise DivergenceError(
                f"{s.id.value} {what} exceeded {DIVERGENCE_LIMIT:g} at step {step + 1}",
                step_index=step + 1,
            )
        out[step + 1] = x.T
    return out


def integrate(s, x0, dt, steps, max_substep=DEFAULT_SUBSTEP):
    """Integrate one trajectory; states recorded every dt."""
    if dt <= 0 or not np.isfinite(dt):
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (STATE_DIM,):
        raise DomainError(f"expected x0 of shape ({STATE_DIM},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise DataError(f"non-finite initial state {x0}")
    path = _rk4_batch(s, x0[None, :], dt, steps, max_substep)
    return Trajectory(dt=dt, states=path[:, 0, :], system=s)


def sample_initial_conditions(s, n, seed):
    """n uniform initial conditions over the system's DEFAULT_IC_BOX;
    trajectory i draws from the stream seeded by (seed, i), so any subset
    reproduces identically."""
    lo, hi = np.array(DEFAULT_IC_BOX[s.id]).T
    return np.array([np.random.default_rng((seed, i)).uniform(lo, hi) for i in range(n)])


def simulate_ensembles(s, n_trajectories, dt, steps, seeds, max_substep=DEFAULT_SUBSTEP):
    """One ensemble per seed, in seeds' order, each from the seeded uniform
    initial conditions simulate_ensemble draws. All of them go through one
    RK4 batch; RK4 works row by row, so every path carries the bits of its
    own ensemble integrated alone. A divergence names the seed and the
    trajectory of the first row that left the bound."""
    if n_trajectories < 1:
        raise DomainError("need at least one trajectory")
    seeds = tuple(seeds)
    if not seeds:
        raise DomainError("need at least one seed")
    x0 = np.vstack([sample_initial_conditions(s, n_trajectories, seed) for seed in seeds])
    if not (np.isfinite(dt) and dt > 0) or steps < 1:
        raise DomainError(f"dt must be finite and > 0 and steps >= 1, got {dt}, {steps}")

    def row_name(i):
        return f"trajectory {i % n_trajectories} of seed {seeds[i // n_trajectories]}"

    paths = _rk4_batch(s, x0, dt, steps, max_substep, row_name)
    return [
        [Trajectory(dt=dt, states=paths[:, e * n_trajectories + i, :], system=s,
                    seed_provenance=seed)
         for i in range(n_trajectories)]
        for e, seed in enumerate(seeds)
    ]


def simulate_ensemble(s, n_trajectories, dt, steps, seed, max_substep=DEFAULT_SUBSTEP):
    """Integrate an ensemble from seeded uniform initial conditions."""
    return simulate_ensembles(s, n_trajectories, dt, steps, (seed,), max_substep)[0]


class Mode(str, Enum):
    DISCRETE_PAIRS = "discrete"
    CONTINUOUS_DERIVATIVES = "continuous"


@dataclass
class SnapshotDataset:
    mode: Mode
    inputs: np.ndarray  # (r, m)
    targets: np.ndarray  # (r, m): successor states, or derivative estimates
    dt: float

    def __post_init__(self):
        self.mode = Mode(self.mode)
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.shape != self.targets.shape:
            raise ConfigError("inputs and targets must have identical shape")
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ConfigError("need a (r >= 1, m) snapshot matrix")

    @property
    def n_rows(self):
        return self.inputs.shape[0]

    @property
    def m(self):
        return self.inputs.shape[1]

    def check_finite(self):
        """Raise DataError unless every input and target is finite."""
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise DataError("dataset contains non-finite values")


def build_snapshot_dataset(trajectories, mode):
    """Stack snapshot pairs from trajectories sharing dt and system.

    DiscretePairs pairs x_t with x_{t+1}; ContinuousDerivatives pairs interior
    x_t with the central difference (x_{t+1} - x_{t-1}) / (2 dt).
    """
    mode = Mode(mode)
    if not trajectories:
        raise ConfigError("no trajectories given")
    dt = trajectories[0].dt
    sys_id = trajectories[0].system.id
    ins, outs = [], []
    for tr in trajectories:
        if tr.dt != dt or tr.system.id != sys_id:
            raise ConfigError("trajectories must share dt and system")
        x = tr.states
        if mode == Mode.DISCRETE_PAIRS:
            if len(x) < 2:
                raise ConfigError("need >= 2 states per trajectory")
            ins.append(x[:-1])
            outs.append(x[1:])
        else:
            if len(x) < 3:
                raise ConfigError("need >= 3 states for central differences")
            ins.append(x[1:-1])
            outs.append((x[2:] - x[:-2]) / (2.0 * dt))
    return SnapshotDataset(mode, np.vstack(ins), np.vstack(outs), dt)


# -- CSV and metadata ------------------------------------------------------------


def write_csv(path, header, rows):
    """Write a header row and then rows in the csv module's default dialect
    (comma separated, CRLF line ends); fields are written as str()."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def trajectory_to_csv(tr, path, include_derivatives=False):
    """Write one trajectory as t,x1,x2[,dx1,dx2]; derivative columns (central
    differences) are left empty on the first and last rows."""
    x = tr.states
    n = len(x)
    header = ["t", "x1", "x2"]
    if include_derivatives:
        header += ["dx1", "dx2"]

    def row(t):
        out = [repr(t * tr.dt), repr(float(x[t, 0])), repr(float(x[t, 1]))]
        if include_derivatives:
            if 0 < t < n - 1:
                d = (x[t + 1] - x[t - 1]) / (2.0 * tr.dt)
                out += [repr(float(d[0])), repr(float(d[1]))]
            else:
                out += ["", ""]
        return out

    write_csv(path, header, (row(t) for t in range(n)))


def trajectory_from_csv(path, system, dt, seed_provenance=-1):
    states = []
    r = read_csv(path)
    next(r, None)  # header
    for row in r:
        try:
            x = [float(row[1]), float(row[2])]
            ok = math.isfinite(x[0]) and math.isfinite(x[1])
        except (IndexError, ValueError):
            ok = False
        if not ok:
            raise DataError(
                f"{path}: line {r.line_num}: x1, x2 must be finite numbers, got {row!r}"
            )
        states.append(x)
    if not states:
        raise DataError(f"{path}: no trajectory rows")
    return Trajectory(dt=dt, states=np.array(states), system=system,
                      seed_provenance=seed_provenance)


def write_ensemble(trajectories, out_dir, seed, include_derivatives=False):
    """Write traj_NNNN.csv files plus a metadata.ini sidecar; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    s = trajectories[0].system
    paths = []
    for i, tr in enumerate(trajectories):
        p = os.path.join(out_dir, f"traj_{i:04d}.csv")
        trajectory_to_csv(tr, p, include_derivatives)
        paths.append(p)
    cp = configparser.ConfigParser()
    cp["simulation"] = {
        "system": s.id.value,
        "constants": " ".join(repr(float(c)) for c in s.constants),
        "dt": repr(float(trajectories[0].dt)),
        "steps": str(len(trajectories[0]) - 1),
        "trajectories": str(len(trajectories)),
        "seed": str(seed),
    }
    with open(os.path.join(out_dir, "metadata.ini"), "w") as fh:
        cp.write(fh)
    return paths


def read_ensemble(data_dir):
    """Load a write_ensemble directory back into trajectories."""
    meta_path = os.path.join(data_dir, "metadata.ini")
    if not os.path.exists(meta_path):
        raise ConfigError(f"no metadata.ini under {data_dir}")
    cp = read_ini(meta_path)

    def field(key, parse):
        return ini_field(cp, "simulation", key, parse, meta_path)

    s = SystemSpec(field("system", SystemId), field("constants", finite_floats))
    dt = field("dt", positive_float)
    seed = field("seed", int)
    steps, n_traj = field("steps", positive_int), field("trajectories", positive_int)
    names = sorted(
        f for f in os.listdir(data_dir)
        if f.startswith("traj_") and f.endswith(".csv")
    )
    if not names:
        raise ConfigError(f"no trajectory files under {data_dir}")
    if len(names) != n_traj:
        raise DataError(f"{meta_path}: trajectories = {n_traj}, but {data_dir} "
                        f"holds {len(names)} traj_*.csv files")
    trajs = [trajectory_from_csv(os.path.join(data_dir, f), s, dt, seed) for f in names]
    for f, tr in zip(names, trajs):
        if len(tr) != steps + 1:
            raise DataError(f"{os.path.join(data_dir, f)}: {len(tr)} rows, but "
                            f"{meta_path} has steps = {steps}, so {steps + 1} rows")
    return trajs
