"""The three benchmark workloads: the CLI commands each runs, and their checks.

A workload is a list of operations. Each operation is one ``augsill``
command line plus a check that reads the command's own output directory.
Every command writes into a directory of its own, so each CSV artifact
belongs to exactly one operation.

``quality`` turns a pass's outputs into ``holdout_err``, a deterministic
accuracy figure that a change which computes faster but worse would move:

- grid: the geometric mean of the 5-step holdout errors of the six trained
  cells (sill, augsill and summedrbf on both systems);
- pursuit: the geometric mean of the four ``evaluate`` errors;
- theory: the geometric mean, over the blow-up degrees, of the distance
  between the fitted polynomial blow-up exponent and its closed-form value
  degree + 1. Theory trains no model, so this is its error against an exact
  answer.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Callable, NamedTuple

SYSTEMS = ("vanderpol", "toggleswitch")
TRAINED_FAMILIES = ("sill", "augsill", "summedrbf")
GRID_ROWS = 12


class CheckFailed(Exception):
    pass


class Operation(NamedTuple):
    """One CLI command, the directory it writes, and how to check it."""

    name: str
    argv: list
    out: str
    check: Callable[[str], None]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(value, what):
    x = float(value)
    if not math.isfinite(x):
        raise CheckFailed(f"{what} is not finite: {value!r}")
    return x


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- grid -----------------------------------------------------------------------------


def _check_grid(out):
    rows = _rows(os.path.join(out, "summary.csv"))
    _require(len(rows) == GRID_ROWS, f"summary.csv has {len(rows)} rows, want {GRID_ROWS}")
    for r in rows:
        _finite(r["error"], f"{r['system']}/{r['dictionary']} error")


def _grid(seed, root, workers):
    out = os.path.join(root, "compare")
    argv = ["compare", "--systems", ",".join(SYSTEMS), "--families", "all",
            "--dims", "20", "--seeds", str(seed), "--epochs", "200",
            "--workers", str(workers), "--out", out]
    return [Operation("compare", argv, out, _check_grid)]


def _grid_quality(root):
    rows = _rows(os.path.join(root, "compare", "summary.csv"))
    return _geomean([float(r["error"]) for r in rows if r["dictionary"] in TRAINED_FAMILIES])


# -- pursuit --------------------------------------------------------------------------


def _check_simulate(out):
    names = [n for n in os.listdir(out) if n.startswith("traj_") and n.endswith(".csv")]
    _require(len(names) == 20, f"{out} holds {len(names)} trajectories, want 20")


def _check_pursuit_fit(out):
    trace = [_finite(r["objective"], "pursuit objective")
             for r in _rows(os.path.join(out, "training_log.csv"))]
    _require(len(trace) == 15, f"pursuit trace has {len(trace)} entries, want 15")
    for i, (a, b) in enumerate(zip(trace, trace[1:])):
        # Criterion 9's monotonicity tolerance, unchanged.
        _require(b <= a + 1e-12, f"pursuit objective rose at step {i + 1}: {a!r} -> {b!r}")


def _check_lstsq_fit(out):
    for r in _rows(os.path.join(out, "training_log.csv")):
        _finite(r["loss"], "lstsq loss")
        _finite(r["five_step_error"], "lstsq 5-step error")


def _check_evaluate(out):
    rows = _rows(os.path.join(out, "report.csv"))
    _require(len(rows) == 1, f"report.csv has {len(rows)} rows, want 1")
    _finite(rows[0]["error"], "evaluate error")


def _pursuit(seed, root, workers):
    ops = []
    for system in SYSTEMS:
        d = os.path.join(root, system)
        train, holdout = os.path.join(d, "train"), os.path.join(d, "holdout")
        for name, out, s in (("train", train, seed), ("holdout", holdout, seed + 1)):
            ops.append(Operation(
                f"{system}/simulate-{name}",
                ["simulate", "--system", system, "--n-traj", "20", "--steps", "200",
                 "--seed", str(s), "--out", out],
                out, _check_simulate))
        fits = (("pursuit", "15", _check_pursuit_fit), ("lstsq", "20", _check_lstsq_fit))
        for method, n_members, check in fits:
            out = os.path.join(d, method)
            ops.append(Operation(
                f"{system}/fit-{method}",
                ["fit", "--data", train, "--family", "augsill", "--n-members", n_members,
                 "--method", method, "--seed", str(seed), "--out", out],
                out, check))
        for method, _, _ in fits:
            out = os.path.join(d, f"evaluate-{method}")
            ops.append(Operation(
                f"{system}/evaluate-{method}",
                ["evaluate", "--model", os.path.join(d, method, "model.ini"),
                 "--data", holdout, "--n-steps", "5", "--out", out],
                out, _check_evaluate))
    return ops


def _pursuit_quality(root):
    return _geomean([float(_rows(os.path.join(root, system, f"evaluate-{method}",
                                              "report.csv"))[0]["error"])
                     for system in SYSTEMS for method in ("pursuit", "lstsq")])


# -- theory ---------------------------------------------------------------------------


def _check_closure(out):
    # The acceptance gate's thresholds (criterion 4), unchanged.
    for r in _rows(os.path.join(out, "rate_fits.csv")):
        where = f"{r['theorem']} config {r['config_id']}"
        _require(float(r["slope"]) < 0, f"{where}: slope {r['slope']} is not negative")
        _require(float(r["r_squared"]) > 0.95, f"{where}: r^2 {r['r_squared']} <= 0.95")
    at_100 = [r for r in _rows(os.path.join(out, "closure_report.csv"))
              if float(r["alpha_scale"]) == 100.0]
    _require(at_100, "closure_report.csv has no alpha=100 rows")
    for r in at_100:
        _require(float(r["sup_error"]) < 1e-3,
                 f"{r['theorem']}: sup error {r['sup_error']} at alpha=100 >= 1e-3")


def _check_expectation(out):
    # The acceptance gate's thresholds (criterion 6), unchanged.
    for r in _rows(os.path.join(out, "expectation.csv")):
        mean, mc_mean = float(r["mean"]), float(r["mc_mean"])
        if r["kind"] == "logistic":
            _require(abs(mean - 0.5) < 1e-6, f"a={r['a']}: logistic mean {mean!r}")
        _require(abs(mc_mean - mean) < 4 * float(r["mc_stderr"]),
                 f"a={r['a']} {r['kind']}: |mc - quad| exceeds 4 standard errors")


def _theory(seed, root, workers):
    # closure runs exactly the configuration criterion 4 gates (all its CLI
    # defaults, seed 0 included), because criterion 4's r^2 > 0.95 holds only
    # there: at about 2% of other seeds one logrbf_disjoint m=1 config, whose
    # centers sit just outside the guard band, fits at r^2 ~ 0.947-0.949 (its
    # log sup error is curved in alpha, not linear). The workload seed feeds
    # expectation. closure does the same work at every seed.
    closure, expectation = os.path.join(root, "closure"), os.path.join(root, "expectation")
    return [
        Operation("closure", ["closure", "--out", closure], closure, _check_closure),
        Operation("expectation", ["expectation", "--seed", str(seed), "--out", expectation],
                  expectation, _check_expectation),
    ]


def _theory_quality(root):
    rows = _rows(os.path.join(root, "closure", "explosion_rates.csv"))
    return _geomean([abs(float(r["exponent"]) - (int(r["degree"]) + 1)) for r in rows])


# name -> (operations(seed, root, workers), quality(root), compare's pool size)
WORKLOADS = {
    "grid": (_grid, _grid_quality, 2),
    "pursuit": (_pursuit, _pursuit_quality, 1),
    "theory": (_theory, _theory_quality, 1),
}
